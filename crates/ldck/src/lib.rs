//! `ldck` — offline consistency checking for LLD disk images.
//!
//! The paper argues that LLD's recovery invariants are simple enough to
//! check mechanically: every piece of LD metadata is reconstructible from
//! the segment summaries alone (§3.6), and a clean shutdown additionally
//! leaves a checkpoint whose tables must agree with what the summaries
//! imply. `ldck` is the `fsck` counterpart for that claim: it walks a raw
//! disk image **without mounting it**, decodes the checkpoint region, every
//! segment summary, the block-number map, the list tables and the segment
//! usage table, and cross-checks them against each other.
//!
//! Two analysis modes, chosen by what the image contains:
//!
//! * **Checkpoint mode** — the image carries a valid clean-shutdown
//!   checkpoint (paper §3.6: "when the system is shut down mildly, LLD's
//!   data structures are stored on the disk"). The checkpointed tables are
//!   the authoritative state; `ldck` verifies their internal consistency
//!   *and* their agreement with the on-disk segment summaries.
//! * **Sweep mode** — no checkpoint (the post-crash state). `ldck` performs
//!   its own independent implementation of the one-sweep replay (§3.6) over
//!   the summaries — deliberately *not* sharing code with
//!   `lld::recovery` beyond the wire-format decoders, so the two
//!   implementations check each other — and then validates the
//!   reconstructed state.
//!
//! Findings are typed ([`Kind`]) and graded ([`Severity`]): `Error` means a
//! state unreachable by any crash (sector writes are atomic in the fault
//! model, and the writer orders summary and checkpoint writes so that torn
//! updates are detected by checksums and ignored) — i.e. real corruption.
//! `Warning` flags suspicious-but-recoverable structure, and `Info` reports
//! expected post-crash residue (incomplete ARUs, orphan blocks) that the
//! recovery sweep discards by design.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use lld::checkpoint::{peek_image, CheckpointPeek, CheckpointView};
use lld::layout::HEADER_SECTORS;
use lld::records::{decode_summary, Record, Summary};
use lld::{BlockEntry, Layout, LldConfig, SegState, NO_SEG, NVRAM_SEG, OPEN_SEG, PROVISIONAL_LIST};
use simdisk::SECTOR_SIZE;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected post-crash residue; recovery handles it by design.
    Info,
    /// Suspicious structure that recovery tolerates but should not occur.
    Warning,
    /// A state no crash can produce under the fault model: corruption.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The invariant a finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The image is not sector-aligned or too small for one segment.
    Geometry,
    /// The checkpoint marker claims validity but the checkpoint cannot be
    /// read back (torn header writes are impossible: the marker sector is
    /// written last).
    CheckpointCorrupt,
    /// No checkpoint — the normal state after a crash.
    CheckpointAbsent,
    /// A checkpoint that is older than summary records on the medium, or
    /// whose sequence counter has already been overtaken by a summary.
    CheckpointStale,
    /// The checkpoint lists the same payload segment twice.
    DuplicatePayloadSegment,
    /// A checkpoint payload segment is not marked Free in the checkpoint's
    /// own usage table.
    PayloadSegmentNotFree,
    /// A mapped block points into a segment holding checkpoint payload.
    MappedBlockInPayloadSegment,
    /// A mapped block points into a segment with no valid summary.
    MappedBlockInDeadSegment,
    /// A mapped block points into a segment the usage table marks Free.
    MappedBlockInFreeSegment,
    /// A checkpointed block still claims the volatile open segment.
    OpenSegmentReference,
    /// A block's physical extent exceeds the segment data region, or its
    /// segment id is beyond the device.
    BlockOutOfBounds,
    /// Two live blocks claim overlapping byte ranges of one segment.
    OverlappingExtents,
    /// A segment's recomputed live-byte count disagrees with the usage
    /// table.
    LiveBytesMismatch,
    /// The usage table marks a segment Live but it has no valid summary.
    LiveSegmentWithoutSummary,
    /// Two segment summaries carry the same physical-write sequence number.
    DuplicateSummarySeq,
    /// Ordering the valid summaries by physical-write sequence disagrees
    /// with ordering them by newest record timestamp. Record timestamps
    /// are assigned before their segment write is submitted and segment
    /// writes reach the medium in submission order (the command queue
    /// keeps writes FIFO and fences seals), so a later-sequenced summary
    /// whose newest record is *older* means a write was reordered across
    /// a seal.
    SealReordered,
    /// A block's logical length exceeds its size class.
    SizeClassViolation,
    /// A list's successor chain revisits a block (cycle or cross-link).
    ListCycle,
    /// A list's successor chain points at a block that does not exist.
    DanglingLink,
    /// A block is owned by one list but reached from another.
    ListOwnershipMismatch,
    /// A mapped block is not reachable from any list head.
    UnreachableBlock,
    /// A replayed block kept a list owner but its list never reaches it.
    UnattachedBlock,
    /// A replayed block was never attached to a list (recovery drops it).
    OrphanBlock,
    /// Records of an explicit ARU that never ended (recovery discards
    /// them — the paper's all-or-nothing guarantee, §3.1).
    IncompleteAru,
    /// The checkpoint's bad-sector remap table is not strictly increasing,
    /// or names a sector outside every segment (the scrubber only ever
    /// remaps sectors it read from segment regions).
    RemapTableMalformed,
    /// A live block's sector extent covers a sector the remap table
    /// declares bad — scrub relocates live data *before* remapping, so no
    /// reachable block may sit on a remapped sector.
    LiveBlockOnBadSector,
    /// A remapped sector lies in a segment the usage table does not mark
    /// Quarantined. Scrub quarantines every segment it confirms a bad
    /// sector in, and quarantine is permanent, so this should not occur.
    BadSectorSegmentNotQuarantined,
}

impl Kind {
    /// Stable lower-case name, for CLI output and tests.
    pub fn name(&self) -> &'static str {
        match self {
            Kind::Geometry => "geometry",
            Kind::CheckpointCorrupt => "checkpoint-corrupt",
            Kind::CheckpointAbsent => "checkpoint-absent",
            Kind::CheckpointStale => "checkpoint-stale",
            Kind::DuplicatePayloadSegment => "duplicate-payload-segment",
            Kind::PayloadSegmentNotFree => "payload-segment-not-free",
            Kind::MappedBlockInPayloadSegment => "mapped-block-in-payload-segment",
            Kind::MappedBlockInDeadSegment => "mapped-block-in-dead-segment",
            Kind::MappedBlockInFreeSegment => "mapped-block-in-free-segment",
            Kind::OpenSegmentReference => "open-segment-reference",
            Kind::BlockOutOfBounds => "block-out-of-bounds",
            Kind::OverlappingExtents => "overlapping-extents",
            Kind::LiveBytesMismatch => "live-bytes-mismatch",
            Kind::LiveSegmentWithoutSummary => "live-segment-without-summary",
            Kind::DuplicateSummarySeq => "duplicate-summary-seq",
            Kind::SealReordered => "seal-reordered",
            Kind::SizeClassViolation => "size-class-violation",
            Kind::ListCycle => "list-cycle",
            Kind::DanglingLink => "dangling-link",
            Kind::ListOwnershipMismatch => "list-ownership-mismatch",
            Kind::UnreachableBlock => "unreachable-block",
            Kind::UnattachedBlock => "unattached-block",
            Kind::OrphanBlock => "orphan-block",
            Kind::IncompleteAru => "incomplete-aru",
            Kind::RemapTableMalformed => "remap-table-malformed",
            Kind::LiveBlockOnBadSector => "live-block-on-bad-sector",
            Kind::BadSectorSegmentNotQuarantined => "bad-sector-segment-not-quarantined",
        }
    }
}

/// One consistency finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// How bad it is.
    pub severity: Severity,
    /// Which invariant.
    pub kind: Kind,
    /// The segment involved, when one is identifiable.
    pub seg: Option<u32>,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.severity, self.kind.name())?;
        if let Some(seg) = self.seg {
            write!(f, " [seg {seg}]")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Aggregate numbers about the analyzed image.
#[derive(Debug, Clone, Default)]
pub struct ImageStats {
    /// Segments on the device.
    pub segments: u32,
    /// Segments with a valid summary.
    pub valid_summaries: u32,
    /// Records across all valid summaries.
    pub records: u64,
    /// Whether a valid checkpoint was found.
    pub checkpoint: bool,
    /// Blocks in the authoritative state (checkpoint or replay).
    pub blocks: u64,
    /// Lists in the authoritative state.
    pub lists: u64,
    /// Blocks whose data lives in the NVRAM image (checkpoint mode only;
    /// the NVRAM contents are outside the disk image and not checkable).
    pub nvram_blocks: u64,
    /// Sectors in the bad-block remap table: the checkpoint's table in
    /// checkpoint mode, or the set reconstructed from `RetireSector`
    /// records by the sweep replay.
    pub bad_sectors: u64,
}

/// The result of [`check_image`].
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings, in detection order.
    pub findings: Vec<Finding>,
    /// Aggregate numbers.
    pub stats: ImageStats,
}

impl Report {
    /// Findings of `Error` severity.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
    }

    /// True when the image has no `Error`-severity findings — the bar every
    /// freshly formatted, cleanly shut down, or crash-then-recovered image
    /// must clear.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    fn push(&mut self, severity: Severity, kind: Kind, seg: Option<u32>, detail: String) {
        self.findings.push(Finding {
            severity,
            kind,
            seg,
            detail,
        });
    }
}

/// The authoritative state under check.
#[derive(Debug, Default)]
struct State {
    /// Block-map entries, from the checkpoint or from `ldck`'s own replay.
    blocks: BTreeMap<u64, BlockEntry>,
    /// `lid -> first`.
    lists: BTreeMap<u64, Option<u64>>,
    /// Remapped sectors replayed from `RetireSector` records (sweep mode;
    /// in checkpoint mode the checkpoint's table is authoritative).
    bad_sectors: std::collections::BTreeSet<u64>,
}

/// Checks a raw LLD disk image for consistency.
///
/// `config` supplies the geometry (`segment_bytes` / `summary_bytes`) the
/// image was formatted with; the remaining fields are ignored. The image is
/// the full byte contents of the device, e.g. from
/// `simdisk::SimDisk::image_bytes`.
pub fn check_image(image: &[u8], config: &LldConfig) -> Report {
    let mut report = Report::default();

    // Geometry gate: everything downstream indexes sectors and segments.
    if !image.len().is_multiple_of(SECTOR_SIZE) {
        report.push(
            Severity::Error,
            Kind::Geometry,
            None,
            format!(
                "image length {} is not a multiple of the {SECTOR_SIZE}-byte sector",
                image.len()
            ),
        );
    }
    let total_sectors = (image.len() / SECTOR_SIZE) as u64;
    let segment_sectors = (config.segment_bytes / SECTOR_SIZE) as u64;
    if segment_sectors == 0 || total_sectors.saturating_sub(HEADER_SECTORS) / segment_sectors == 0 {
        report.push(
            Severity::Error,
            Kind::Geometry,
            None,
            format!(
                "{total_sectors} sectors cannot hold one {}-byte segment plus the header",
                config.segment_bytes
            ),
        );
        return report;
    }
    let layout = Layout::compute(total_sectors, config.segment_bytes, config.summary_bytes);
    report.stats.segments = layout.segments;

    // Decode every segment summary in one pass (the §3.6 sweep).
    let summaries = read_summaries(image, &layout);
    report.stats.valid_summaries = summaries.iter().flatten().count() as u32;
    report.stats.records = summaries
        .iter()
        .flatten()
        .map(|s| s.records.len() as u64)
        .sum();
    check_summary_seqs(&summaries, &mut report);
    check_summary_order(&summaries, &mut report);

    match peek_image(image, &layout) {
        CheckpointPeek::Corrupt(msg) => {
            report.push(Severity::Error, Kind::CheckpointCorrupt, None, msg);
            // The tables are unreadable; fall back to sweep mode so the
            // summaries still get their structural checks.
            let state = replay(&summaries, &mut report);
            check_state(&state, &summaries, &layout, None, &mut report);
            finish_stats(&state, &mut report);
        }
        CheckpointPeek::Absent => {
            report.push(
                Severity::Info,
                Kind::CheckpointAbsent,
                None,
                "no checkpoint; analyzing via recovery-sweep replay".into(),
            );
            let state = replay(&summaries, &mut report);
            check_state(&state, &summaries, &layout, None, &mut report);
            finish_stats(&state, &mut report);
        }
        CheckpointPeek::Valid(view) => {
            report.stats.checkpoint = true;
            report.stats.bad_sectors = view.bad_sectors.len() as u64;
            check_checkpoint_meta(&view, &summaries, &layout, &mut report);
            check_bad_sector_table(&view, &layout, &mut report);
            let state = state_from_view(&view);
            check_state(&state, &summaries, &layout, Some(&view), &mut report);
            finish_stats(&state, &mut report);
        }
    }
    report
}

fn finish_stats(state: &State, report: &mut Report) {
    if !report.stats.checkpoint {
        report.stats.bad_sectors = state.bad_sectors.len() as u64;
    }
    report.stats.blocks = state.blocks.len() as u64;
    report.stats.lists = state.lists.len() as u64;
    report.stats.nvram_blocks = state.blocks.values().filter(|b| b.seg == NVRAM_SEG).count() as u64;
}

/// Decodes the summary region of every segment. `None` per segment means
/// never-written, torn, or corrupt — indistinguishable offline, and all
/// three are ignored by recovery.
fn read_summaries(image: &[u8], layout: &Layout) -> Vec<Option<Summary>> {
    (0..layout.segments)
        .map(|seg| {
            let base = layout.summary_base(seg) as usize * SECTOR_SIZE;
            image
                .get(base..base + layout.summary_bytes)
                .and_then(decode_summary)
        })
        .collect()
}

/// Physical-write sequence numbers are strictly increasing across every
/// segment write, so no two summaries on the medium can share one; a
/// duplicate means a summary was copied or replayed onto the disk.
fn check_summary_seqs(summaries: &[Option<Summary>], report: &mut Report) {
    let mut by_seq: HashMap<u64, u32> = HashMap::new();
    for (seg, summary) in summaries.iter().enumerate() {
        let Some(s) = summary else { continue };
        if let Some(prev) = by_seq.insert(s.seq, seg as u32) {
            report.push(
                Severity::Error,
                Kind::DuplicateSummarySeq,
                Some(seg as u32),
                format!("summary seq {} also claimed by segment {prev}", s.seq),
            );
        }
    }
}

/// Write-order invariant: every record's timestamp is assigned before the
/// segment holding it is submitted, segment buffers only grow between
/// seals, and segment writes reach the medium in submission order. So
/// walking the valid summaries in physical-write-sequence order must see
/// non-decreasing newest-record timestamps. A decrease means a
/// later-submitted segment landed while an earlier one did not — a queued
/// write silently reordered across a seal.
fn check_summary_order(summaries: &[Option<Summary>], report: &mut Report) {
    let mut by_seq: Vec<(u64, u64, u32)> = summaries
        .iter()
        .enumerate()
        .filter_map(|(seg, summary)| {
            let s = summary.as_ref()?;
            let max_ts = s.records.iter().map(|r| r.ts).max()?;
            Some((s.seq, max_ts, seg as u32))
        })
        .collect();
    by_seq.sort_unstable();
    for w in by_seq.windows(2) {
        let (prev_seq, prev_ts, prev_seg) = w[0];
        let (seq, ts, seg) = w[1];
        if ts < prev_ts {
            report.push(
                Severity::Error,
                Kind::SealReordered,
                Some(seg),
                format!(
                    "write seq {seq} holds newest record ts {ts}, but earlier \
                     write seq {prev_seq} (segment {prev_seg}) already reached \
                     ts {prev_ts} — a write was reordered across a seal"
                ),
            );
        }
    }
}

/// Checkpoint-only cross-checks: the payload placement and the counters.
fn check_checkpoint_meta(
    view: &CheckpointView,
    summaries: &[Option<Summary>],
    layout: &Layout,
    report: &mut Report,
) {
    let mut seen = HashSet::new();
    for &seg in &view.payload_segments {
        if !seen.insert(seg) {
            report.push(
                Severity::Error,
                Kind::DuplicatePayloadSegment,
                Some(seg),
                "checkpoint lists this payload segment twice".into(),
            );
        }
        match view.usage.get(seg as usize) {
            Some(u) if u.state != SegState::Free => {
                report.push(
                    Severity::Error,
                    Kind::PayloadSegmentNotFree,
                    Some(seg),
                    format!(
                        "checkpoint payload occupies a segment its own usage table marks {:?}",
                        u.state
                    ),
                );
            }
            _ => {}
        }
    }

    // Counter monotonicity: the checkpoint is written at shutdown, after
    // every record and every segment write, so its counters must dominate
    // everything the summaries carry. A summary from a later generation
    // next to a stale checkpoint means the marker was forged or restored.
    let max_ts = summaries
        .iter()
        .flatten()
        .flat_map(|s| s.records.iter().map(|r| r.ts))
        .max()
        .unwrap_or(0);
    if view.ts < max_ts {
        report.push(
            Severity::Error,
            Kind::CheckpointStale,
            None,
            format!(
                "checkpoint ts {} is older than summary record ts {max_ts}",
                view.ts
            ),
        );
    }
    for (seg, summary) in summaries.iter().enumerate() {
        if let Some(s) = summary {
            if s.seq >= view.seq {
                report.push(
                    Severity::Error,
                    Kind::CheckpointStale,
                    Some(seg as u32),
                    format!(
                        "summary seq {} is not below the checkpoint's next seq {}",
                        s.seq, view.seq
                    ),
                );
            }
        }
    }

    // Usage table vs summaries: Live claims a summary worth keeping.
    for (seg, u) in view.usage.iter().enumerate() {
        if u.state == SegState::Live && summaries[seg].is_none() {
            report.push(
                Severity::Error,
                Kind::LiveSegmentWithoutSummary,
                Some(seg as u32),
                format!(
                    "usage table marks segment Live ({} live bytes) but it has no valid summary",
                    u.live_bytes
                ),
            );
        }
    }
    let _ = layout;
}

/// Validates the checkpoint's bad-sector remap table in isolation: the
/// scrubber serializes a `BTreeSet`, so the wire form must be strictly
/// increasing, and every entry must fall inside some segment (scrub only
/// probes sectors LLD actually read, all of which live in segment
/// regions). Placement relative to quarantined segments is a cross-check:
/// scrub quarantines the segment of every sector it remaps, and quarantine
/// is permanent, so a bad sector in a non-Quarantined segment means the
/// table and the usage table disagree about history.
fn check_bad_sector_table(view: &CheckpointView, layout: &Layout, report: &mut Report) {
    for (i, &sector) in view.bad_sectors.iter().enumerate() {
        if i > 0 && view.bad_sectors[i - 1] >= sector {
            report.push(
                Severity::Error,
                Kind::RemapTableMalformed,
                None,
                format!(
                    "remap table is not strictly increasing: sector {} follows {}",
                    sector,
                    view.bad_sectors[i - 1]
                ),
            );
        }
        let Some(seg) = layout.segment_of_sector(sector) else {
            report.push(
                Severity::Error,
                Kind::RemapTableMalformed,
                None,
                format!("remapped sector {sector} lies outside every segment"),
            );
            continue;
        };
        match view.usage.get(seg as usize) {
            Some(u) if u.state != SegState::Quarantined => {
                report.push(
                    Severity::Warning,
                    Kind::BadSectorSegmentNotQuarantined,
                    Some(seg),
                    format!(
                        "remapped sector {sector} sits in a segment marked {:?}, not Quarantined",
                        u.state
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Builds the model state from a parsed checkpoint.
fn state_from_view(view: &CheckpointView) -> State {
    State {
        blocks: view.blocks.iter().copied().collect(),
        lists: view.lists.iter().map(|l| (l.lid, l.first)).collect(),
        bad_sectors: Default::default(),
    }
}

/// A record tagged with its physical position, for the replay sort.
struct RepRec {
    ts: u64,
    seq: u64,
    idx: u32,
    seg: u32,
    ends_aru: bool,
    aru: Option<u64>,
    rec: Record,
}

/// `ldck`'s own one-sweep replay (paper §3.6), independent of
/// `lld::recovery` except for the shared wire decoders. The semantics
/// mirror the recovery sweep exactly: global (ts, seq, idx) order, newest
/// physical copy per timestamp wins, explicit-ARU records deferred to their
/// `EndAru` and discarded when the unit never ended.
fn replay(summaries: &[Option<Summary>], report: &mut Report) -> State {
    let mut all: Vec<RepRec> = Vec::new();
    for (seg, summary) in summaries.iter().enumerate() {
        let Some(s) = summary else { continue };
        for (idx, r) in s.records.iter().enumerate() {
            all.push(RepRec {
                ts: r.ts,
                seq: s.seq,
                idx: idx as u32,
                seg: seg as u32,
                ends_aru: r.ends_aru,
                aru: r.aru,
                rec: r.rec,
            });
        }
    }
    all.sort_by_key(|r| (r.ts, r.seq, r.idx));

    let mut state = State::default();
    let mut pending: HashMap<u64, Vec<&RepRec>> = HashMap::new();
    for (i, r) in all.iter().enumerate() {
        // Duplicate physical copies of one logical record (a partial
        // segment superseded by its seal) share a timestamp; apply only
        // the newest copy.
        if all.get(i + 1).is_some_and(|next| next.ts == r.ts) {
            continue;
        }
        match r.aru {
            Some(id) if !r.ends_aru => pending.entry(id).or_default().push(r),
            Some(id) => {
                for p in pending.remove(&id).unwrap_or_default() {
                    apply(&mut state, p);
                }
                apply(&mut state, r);
            }
            None => apply(&mut state, r),
        }
    }
    if !pending.is_empty() {
        let count: usize = pending.values().map(Vec::len).sum();
        let mut ids: Vec<u64> = pending.keys().copied().collect();
        ids.sort_unstable();
        report.push(
            Severity::Info,
            Kind::IncompleteAru,
            None,
            format!(
                "{count} record(s) of never-ended ARU(s) {ids:?} discarded, \
                 as recovery would (§3.1 all-or-nothing)"
            ),
        );
    }
    state
}

fn apply(state: &mut State, r: &RepRec) {
    match r.rec {
        Record::NewBlock {
            bid,
            lid,
            size_class,
        } => {
            let e = ensure_block(state, bid);
            e.list = lid;
            e.size_class = size_class;
        }
        Record::DeleteBlock { bid } => {
            state.blocks.remove(&bid);
        }
        Record::WriteBlock {
            bid,
            offset,
            stored_len,
            logical_len,
            compressed: _,
        }
        | Record::Locate {
            bid,
            offset,
            stored_len,
            logical_len,
            ..
        } => {
            let e = ensure_block(state, bid);
            e.seg = match r.rec {
                Record::Locate { seg, .. } => seg,
                _ => r.seg,
            };
            e.offset = offset;
            e.stored_len = stored_len;
            e.logical_len = logical_len;
        }
        Record::Link { bid, next } => {
            ensure_block(state, bid).next = next;
        }
        Record::ListHead { lid, first } => {
            *state.lists.entry(lid).or_insert(None) = first;
        }
        Record::NewList { lid, .. } => {
            state.lists.insert(lid, None);
        }
        Record::DeleteList { lid } => {
            let mut cur = state.lists.get(&lid).copied().flatten();
            let mut guard = state.blocks.len() + 1;
            while let Some(b) = cur {
                cur = state.blocks.get(&b).and_then(|e| e.next);
                state.blocks.remove(&b);
                guard -= 1;
                if guard == 0 {
                    break;
                }
            }
            state.lists.remove(&lid);
        }
        Record::ListOrder { lid, .. } => {
            state.lists.entry(lid).or_insert(None);
        }
        Record::EndAru => {}
        Record::RetireSector { sector } => {
            state.bad_sectors.insert(sector);
        }
        // Quarantine affects the usage table, which the sweep does not
        // model; the placement checks use the remap table instead.
        Record::Quarantine { .. } => {}
    }
}

fn ensure_block(state: &mut State, bid: u64) -> &mut BlockEntry {
    (state.blocks)
        .entry(bid)
        .or_insert_with(|| BlockEntry::new(PROVISIONAL_LIST, 0))
}

/// Structural checks on the authoritative state: physical placement,
/// extent disjointness, list-chain shape, and (in checkpoint mode) the
/// usage-table accounting.
fn check_state(
    state: &State,
    summaries: &[Option<Summary>],
    layout: &Layout,
    view: Option<&CheckpointView>,
    report: &mut Report,
) {
    let payload: HashSet<u32> = view
        .map(|v| v.payload_segments.iter().copied().collect())
        .unwrap_or_default();
    let bad: std::collections::BTreeSet<u64> = match view {
        Some(v) => v.bad_sectors.iter().copied().collect(),
        None => state.bad_sectors.clone(),
    };

    // Physical placement of every mapped block.
    let mut extents: BTreeMap<u32, Vec<(u32, u32, u64)>> = BTreeMap::new();
    let mut live: BTreeMap<u32, u64> = BTreeMap::new();
    for (&bid, b) in &state.blocks {
        if b.size_class != 0 && b.logical_len > b.size_class {
            report.push(
                Severity::Error,
                Kind::SizeClassViolation,
                real_seg(b.seg, layout),
                format!(
                    "block {bid} logical length {} exceeds its size class {}",
                    b.logical_len, b.size_class
                ),
            );
        }
        match b.seg {
            NO_SEG | NVRAM_SEG => continue,
            OPEN_SEG => {
                report.push(
                    Severity::Error,
                    Kind::OpenSegmentReference,
                    None,
                    format!("block {bid} claims the volatile open segment"),
                );
                continue;
            }
            seg if seg >= layout.segments => {
                report.push(
                    Severity::Error,
                    Kind::BlockOutOfBounds,
                    None,
                    format!(
                        "block {bid} maps to segment {seg}, device has {}",
                        layout.segments
                    ),
                );
                continue;
            }
            seg => {
                if b.offset as usize + b.stored_len as usize > layout.data_bytes {
                    report.push(
                        Severity::Error,
                        Kind::BlockOutOfBounds,
                        Some(seg),
                        format!(
                            "block {bid} extent {}..{} exceeds the {}-byte data region",
                            b.offset,
                            b.offset as u64 + u64::from(b.stored_len),
                            layout.data_bytes
                        ),
                    );
                    continue;
                }
                if summaries[seg as usize].is_none() {
                    report.push(
                        Severity::Error,
                        Kind::MappedBlockInDeadSegment,
                        Some(seg),
                        format!("block {bid} maps into a segment with no valid summary"),
                    );
                }
                if payload.contains(&seg) {
                    report.push(
                        Severity::Error,
                        Kind::MappedBlockInPayloadSegment,
                        Some(seg),
                        format!("block {bid} maps into a checkpoint payload segment"),
                    );
                }
                if let Some(v) = view {
                    if v.usage[seg as usize].state == SegState::Free {
                        report.push(
                            Severity::Error,
                            Kind::MappedBlockInFreeSegment,
                            Some(seg),
                            format!("block {bid} maps into a segment marked Free"),
                        );
                    }
                }
                *live.entry(seg).or_default() += u64::from(b.stored_len);
                if b.stored_len > 0 {
                    extents
                        .entry(seg)
                        .or_default()
                        .push((b.offset, b.stored_len, bid));
                    if !bad.is_empty() {
                        let (start, count) =
                            layout.data_sector_span(seg, b.offset as usize, b.stored_len as usize);
                        if let Some(&s) = bad.range(start..start + count).next() {
                            report.push(
                                Severity::Error,
                                Kind::LiveBlockOnBadSector,
                                Some(seg),
                                format!("block {bid} occupies remapped bad sector {s}"),
                            );
                        }
                    }
                }
            }
        }
    }

    // No two live blocks may claim the same sectors of a segment.
    for (seg, mut spans) in extents {
        spans.sort_unstable();
        for w in spans.windows(2) {
            let (ao, al, abid) = w[0];
            let (bo, _, bbid) = w[1];
            if ao as u64 + u64::from(al) > bo.into() {
                report.push(
                    Severity::Error,
                    Kind::OverlappingExtents,
                    Some(seg),
                    format!(
                        "blocks {abid} ({ao}+{al}) and {bbid} (at {bo}) overlap in the data region"
                    ),
                );
            }
        }
    }

    // Checkpoint mode: the stored per-segment accounting must match what
    // the block map implies. (Scratch segments are skipped: their live
    // bytes track the open segment's pending tail, which is volatile.)
    if let Some(v) = view {
        for (seg, u) in v.usage.iter().enumerate() {
            if u.state != SegState::Live {
                continue;
            }
            let recomputed = live.get(&(seg as u32)).copied().unwrap_or(0);
            if recomputed != u.live_bytes {
                report.push(
                    Severity::Error,
                    Kind::LiveBytesMismatch,
                    Some(seg as u32),
                    format!(
                        "usage table records {} live bytes, block map implies {recomputed}",
                        u.live_bytes
                    ),
                );
            }
        }
    }

    check_chains(state, view.is_some(), report);
}

/// Maps a possibly-sentinel segment id to a reportable one.
fn real_seg(seg: u32, layout: &Layout) -> Option<u32> {
    (seg < layout.segments).then_some(seg)
}

/// Walks every list's successor chain: acyclic, complete, and owned by the
/// list that reaches it.
fn check_chains(state: &State, authoritative: bool, report: &mut Report) {
    let mut visited: HashSet<u64> = HashSet::new();
    for (&lid, &first) in &state.lists {
        let mut cur = first;
        let mut guard = state.blocks.len() + 1;
        while let Some(b) = cur {
            if guard == 0 {
                break;
            }
            guard -= 1;
            if !visited.insert(b) {
                report.push(
                    Severity::Error,
                    Kind::ListCycle,
                    None,
                    format!("list {lid} revisits block {b} (cycle or cross-linked lists)"),
                );
                break;
            }
            let Some(e) = state.blocks.get(&b) else {
                report.push(
                    Severity::Error,
                    Kind::DanglingLink,
                    None,
                    format!("list {lid} links to block {b}, which does not exist"),
                );
                break;
            };
            // A checkpoint stores ownership explicitly; the replay only
            // derives it, so the comparison is meaningful in checkpoint
            // mode alone.
            if authoritative && e.list != lid {
                report.push(
                    Severity::Error,
                    Kind::ListOwnershipMismatch,
                    None,
                    format!(
                        "block {b} is owned by list {} but chained on list {lid}",
                        e.list
                    ),
                );
            }
            cur = e.next;
        }
    }

    for (&bid, b) in &state.blocks {
        if visited.contains(&bid) {
            continue;
        }
        if authoritative {
            report.push(
                Severity::Error,
                Kind::UnreachableBlock,
                None,
                format!(
                    "block {bid} (list {}) is not reachable from any list head",
                    b.list
                ),
            );
        } else if b.list == PROVISIONAL_LIST {
            report.push(
                Severity::Info,
                Kind::OrphanBlock,
                None,
                format!("block {bid} was never attached to a list; recovery drops it"),
            );
        } else {
            report.push(
                Severity::Warning,
                Kind::UnattachedBlock,
                None,
                format!("block {bid} claims list {} but is not on its chain", b.list),
            );
        }
    }
}
