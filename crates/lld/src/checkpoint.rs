//! Clean-shutdown checkpoint (paper §3.6).
//!
//! "If LLD is shut down explicitly, it writes its data structures, a
//! timestamp, and a marker that the state stored is valid in a special
//! region on disk. ... In the case of explicit shut down, LLD reads its
//! data structures from the special area on disk, invalidates the marker,
//! and starts immediately."
//!
//! The fixed header region (the first sectors of the disk) holds only the
//! marker and a table of contents; the serialized tables themselves are
//! written into whole *free segments*, so checkpoint size is bounded by
//! free space, not by a fixed region. A checkpoint is strictly an
//! optimization: when no free segment is available (or the header is torn)
//! startup falls back to the recovery sweep.
//!
//! One reader parses the format: it checks the header, gathers the
//! payload segments and parses the payload into a [`CheckpointView`] of
//! LLD's own table types. Start-up ([`try_load`]) feeds it from the device,
//! re-driving faulty reads and invalidating the marker; offline tools such
//! as `ldck` feed it the bytes of an image ([`peek_image`]).

use ld_core::wire::{self, fnv1a64};
use ld_core::{LdError, ListHints, Result};
use simdisk::{BlockDev, SECTOR_SIZE};

use crate::block_map::{BlockEntry, BlockMap, ListTable};
use crate::layout::HEADER_SECTORS;
use crate::usage::{SegState, SegUsage, UsageTable};
use crate::{dev, read_sectors_retrying, FailedRead, Layout, Lld};

/// Magic number identifying a checkpoint header ("LDCP").
pub const CKPT_MAGIC: u32 = 0x4C44_4350;
/// Checkpoint format version.
pub const CKPT_VERSION: u16 = 1;

/// Bytes in the fixed header region.
const HEADER_BYTES: usize = HEADER_SECTORS as usize * SECTOR_SIZE;

/// Segment states by their on-disk code (the `SegState` discriminant).
const SEG_STATES: [SegState; 4] = [
    SegState::Free,
    SegState::Live,
    SegState::Scratch,
    SegState::Quarantined,
];

/// Verdict on a payload whose checksum holds but whose tables do not parse.
const UNPARSABLE: &str = "payload passed checksum but failed to parse";

/// State reconstructed from a checkpoint.
pub(crate) struct LoadedState {
    pub map: BlockMap,
    pub lists: ListTable,
    pub usage: UsageTable,
    pub ts: u64,
    pub seq: u64,
    pub bad_sectors: std::collections::BTreeSet<u64>,
}

/// One list-table entry of a parsed checkpoint, as plain data, in
/// list-of-lists order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListView {
    /// List id.
    pub lid: u64,
    /// First block of the list.
    pub first: Option<u64>,
    /// Clustering/compression hints.
    pub hints: ListHints,
}

/// A parsed checkpoint: what [`try_load`] builds LLD's tables from, and
/// what [`peek_image`] hands offline tooling (`ldck`).
#[derive(Debug, Clone)]
pub struct CheckpointView {
    /// Operation-counter value at shutdown.
    pub ts: u64,
    /// Next physical-write sequence number at shutdown.
    pub seq: u64,
    /// Free segments the payload was written into, in chunk order.
    pub payload_segments: Vec<u32>,
    /// Block-number map entries, keyed by logical block number.
    pub blocks: Vec<(u64, BlockEntry)>,
    /// List-table entries in list-of-lists order.
    pub lists: Vec<ListView>,
    /// Usage table, one entry per segment.
    pub usage: Vec<SegUsage>,
    /// Bad-block remap table: sectors retired after confirmed media
    /// faults, in ascending order. Empty for checkpoints written before
    /// any fault (the section is omitted from the payload entirely, so
    /// fault-free images are byte-identical to the pre-fault format).
    pub bad_sectors: Vec<u64>,
}

/// Outcome of peeking at a raw image's checkpoint region.
#[derive(Debug, Clone)]
pub enum CheckpointPeek {
    /// No valid-marked checkpoint header (never written, already consumed
    /// by a start-up, or torn before the marker was set) — the normal state
    /// after a crash; start-up falls back to the recovery sweep.
    Absent,
    /// The marker claims a valid checkpoint but it cannot be read back.
    /// Unreachable by a crash (the header sector is written last, after the
    /// payload, and sectors persist atomically) — this is corruption.
    Corrupt(String),
    /// A fully parsed checkpoint.
    Valid(CheckpointView),
}

/// Why [`read`] rejected a checkpoint.
enum Reject<E> {
    /// No valid-marked header.
    Absent,
    /// The marker claims validity, but the header or payload is wrong.
    Corrupt(String),
    /// The payload passed its checksum but does not parse.
    Unparsable,
    /// Fetching a payload segment failed.
    Fetch(E),
}

/// The checkpoint reader. Checks the header (magic, version, marker,
/// payload length, checksum and segment list), fills one segment-sized
/// chunk per listed payload segment through `fetch`, then verifies the
/// checksum and parses the payload.
fn read<E>(
    header: &[u8],
    layout: &Layout,
    mut fetch: impl FnMut(u32, &mut [u8]) -> std::result::Result<(), E>,
) -> std::result::Result<CheckpointView, Reject<E>> {
    // Layout: u32 magic, u16 version, u8 valid marker, u8 pad, then fields.
    if wire::le_u32(header, 0) != CKPT_MAGIC
        || wire::le_u16(header, 4) != CKPT_VERSION
        || header[6] != 1
    {
        return Err(Reject::Absent);
    }
    let corrupt = |msg: String| Err(Reject::Corrupt(msg));
    let mut r = Reader {
        data: header,
        pos: 8,
    };
    let (Some(payload_len), Some(checksum), Some(nsegs)) = (r.u64(), r.u64(), r.u32()) else {
        return corrupt("checkpoint header fields truncated".into());
    };
    let mut segs = Vec::new();
    for _ in 0..nsegs {
        match r.u32() {
            Some(s) if s < layout.segments => segs.push(s),
            Some(s) => {
                return corrupt(format!(
                    "payload segment {s} out of range (disk has {})",
                    layout.segments
                ))
            }
            None => return corrupt("payload segment list truncated".into()),
        }
    }
    let payload_len = payload_len as usize;
    if payload_len > segs.len() * layout.segment_bytes {
        return corrupt(format!(
            "payload length {payload_len} exceeds the {} listed segments",
            segs.len()
        ));
    }
    let mut payload = vec![0u8; segs.len() * layout.segment_bytes];
    for (seg, chunk) in segs
        .iter()
        .zip(payload.chunks_exact_mut(layout.segment_bytes))
    {
        fetch(*seg, chunk).map_err(Reject::Fetch)?;
    }
    payload.truncate(payload_len);
    if fnv1a64(&payload) != checksum {
        return corrupt("payload checksum mismatch".into());
    }
    let mut view = parse(&payload).ok_or(Reject::Unparsable)?;
    if view.usage.len() != layout.segments as usize {
        return corrupt(format!(
            "usage table covers {} segments, disk has {}",
            view.usage.len(),
            layout.segments
        ));
    }
    view.payload_segments = segs;
    Ok(view)
}

/// Parses the checkpoint of a raw disk image **read-only**: unlike
/// [`try_load`] this never invalidates the marker, making it safe for
/// offline analysis of an image that may still be started from.
pub fn peek_image(image: &[u8], layout: &Layout) -> CheckpointPeek {
    let Some(header) = image.get(..HEADER_BYTES) else {
        return CheckpointPeek::Corrupt(format!(
            "image shorter than the {HEADER_BYTES}-byte checkpoint header"
        ));
    };
    let fetch = |seg: u32, chunk: &mut [u8]| {
        let base = layout.segment_base(seg) as usize * SECTOR_SIZE;
        let bytes = image
            .get(base..base + chunk.len())
            .ok_or_else(|| format!("image truncated inside segment {seg}"))?;
        chunk.copy_from_slice(bytes);
        Ok(())
    };
    match read(header, layout, fetch) {
        Ok(view) => CheckpointPeek::Valid(view),
        Err(Reject::Absent) => CheckpointPeek::Absent,
        Err(Reject::Corrupt(msg) | Reject::Fetch(msg)) => CheckpointPeek::Corrupt(msg),
        Err(Reject::Unparsable) => CheckpointPeek::Corrupt(UNPARSABLE.into()),
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn u64(&mut self) -> Option<u64> {
        let b = self.data.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(wire::le_u64(b, 0))
    }

    fn u32(&mut self) -> Option<u32> {
        let b = self.data.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(wire::le_u32(b, 0))
    }

    fn u8(&mut self) -> Option<u8> {
        let b = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// An optional id, stored as `id + 1` with 0 for `None`.
    fn opt(&mut self) -> Option<Option<u64>> {
        Some(self.u64()?.checked_sub(1))
    }

    /// `n` items read by `item`. Every item takes at least one byte, so the
    /// bytes left bound the allocation whatever `n` claims.
    fn items<T>(&mut self, n: u64, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let left = (self.data.len() - self.pos) as u64;
        let mut out = Vec::with_capacity(n.min(left) as usize);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }
}

/// Serializes the LLD tables.
fn serialize<D: BlockDev>(lld: &Lld<D>) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, lld.ts);
    put_u64(&mut out, lld.seq);

    // Block-number map.
    let blocks: Vec<(u64, &BlockEntry)> = lld.map.iter().collect();
    put_u64(&mut out, blocks.len() as u64);
    for (bid, e) in blocks {
        put_u64(&mut out, bid);
        put_u32(&mut out, e.seg);
        put_u32(&mut out, e.offset);
        put_u32(&mut out, e.stored_len);
        put_u32(&mut out, e.logical_len);
        put_u32(&mut out, e.size_class);
        out.push(e.compressed as u8);
        put_u64(&mut out, e.next.map_or(0, |n| n + 1));
        put_u64(&mut out, e.list);
    }

    // List table, serialized in list-of-lists order so the chain can be
    // rebuilt with plain installs.
    let lists: Vec<_> = (lld.lists.order().into_iter())
        .filter_map(|lid| Some((lid, lld.lists.get(lid)?)))
        .collect();
    put_u64(&mut out, lists.len() as u64);
    for (lid, e) in lists {
        put_u64(&mut out, lid);
        put_u64(&mut out, e.first.map_or(0, |f| f + 1));
        out.push(e.hints.to_bits());
    }

    // Segment usage table.
    put_u32(&mut out, lld.usage.len());
    for (_, u) in lld.usage.iter() {
        out.push(u.state as u8);
        put_u64(&mut out, u.live_bytes);
        put_u64(&mut out, u.last_write_ts);
    }

    // Bad-block remap table, appended only when non-empty so fault-free
    // checkpoints keep the original byte layout (readers length-gate it).
    if !lld.bad_sectors.is_empty() {
        put_u64(&mut out, lld.bad_sectors.len() as u64);
        for s in &lld.bad_sectors {
            put_u64(&mut out, *s);
        }
    }
    out
}

/// Parses a checkpoint payload, the inverse of [`serialize`].
fn parse(data: &[u8]) -> Option<CheckpointView> {
    let mut r = Reader { data, pos: 0 };
    let ts = r.u64()?;
    let seq = r.u64()?;
    let n = r.u64()?;
    let blocks = r.items(n, |r| {
        let bid = r.u64()?;
        let entry = BlockEntry {
            seg: r.u32()?,
            offset: r.u32()?,
            stored_len: r.u32()?,
            logical_len: r.u32()?,
            size_class: r.u32()?,
            compressed: r.u8()? != 0,
            next: r.opt()?,
            list: r.u64()?,
        };
        Some((bid, entry))
    })?;
    let n = r.u64()?;
    let lists = r.items(n, |r| {
        Some(ListView {
            lid: r.u64()?,
            first: r.opt()?,
            hints: ListHints::from_bits(r.u8()?),
        })
    })?;
    let n = r.u32()?;
    let usage = r.items(n.into(), |r| {
        Some(SegUsage {
            state: *SEG_STATES.get(usize::from(r.u8()?))?,
            live_bytes: r.u64()?,
            last_write_ts: r.u64()?,
        })
    })?;
    // Optional bad-block remap table: present iff payload bytes remain
    // (checkpoints written before any media fault omit it).
    let bad_sectors = if r.pos < data.len() {
        let n = r.u64()?;
        r.items(n, Reader::u64)?
    } else {
        Vec::new()
    };
    Some(CheckpointView {
        ts,
        seq,
        payload_segments: Vec::new(),
        blocks,
        lists,
        usage,
        bad_sectors,
    })
}

/// Builds live tables from a parsed checkpoint.
fn into_state(view: CheckpointView) -> LoadedState {
    let mut map = BlockMap::new();
    for (bid, e) in view.blocks {
        map.install(bid, e);
    }
    map.rebuild_free_stack();

    let mut lists = ListTable::new();
    let mut prev: Option<u64> = None;
    for l in &view.lists {
        lists.install(l.lid, prev, l.hints);
        if let Some(e) = lists.get_mut(l.lid) {
            e.first = l.first;
        }
        prev = Some(l.lid);
    }
    lists.rebuild_free_stack();

    let mut usage = UsageTable::new(view.usage.len() as u32);
    for (seg, u) in view.usage.into_iter().enumerate() {
        usage.set(seg as u32, u);
    }
    LoadedState {
        map,
        lists,
        usage,
        ts: view.ts,
        seq: view.seq,
        bad_sectors: view.bad_sectors.into_iter().collect(),
    }
}

/// Writes the checkpoint: payload into free segments, then the valid
/// header. Skipped silently (leaving the header invalid) when no free
/// segments can hold the payload — the next start will sweep instead.
pub(crate) fn write_checkpoint<D: BlockDev>(lld: &mut Lld<D>) -> Result<()> {
    let payload = serialize(lld);
    let seg_bytes = lld.layout.segment_bytes;
    let needed = payload.len().div_ceil(seg_bytes);
    let free = lld.usage.free_list();
    let header_capacity = (HEADER_BYTES - 64) / 4;
    if free.len() < needed || needed > header_capacity {
        return Ok(());
    }
    let segs = &free[..needed];
    for (i, seg) in segs.iter().enumerate() {
        let start = i * seg_bytes;
        let end = (start + seg_bytes).min(payload.len());
        let mut chunk = payload[start..end].to_vec();
        chunk.resize(seg_bytes, 0);
        lld.disk
            .write_sectors(lld.layout.segment_base(*seg), &chunk)
            .map_err(dev)?;
    }

    let mut header = Vec::with_capacity(HEADER_BYTES);
    put_u32(&mut header, CKPT_MAGIC);
    header.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    header.push(1); // Valid marker.
    header.push(0);
    put_u64(&mut header, payload.len() as u64);
    put_u64(&mut header, fnv1a64(&payload));
    put_u32(&mut header, segs.len() as u32);
    for seg in segs {
        put_u32(&mut header, *seg);
    }
    header.resize(HEADER_BYTES, 0);
    lld.disk.write_sectors(0, &header).map_err(dev)?;
    Ok(())
}

/// Attempts to load (and invalidate) a checkpoint. `Ok(None)` means no
/// valid checkpoint; the caller falls back to the sweep. Reads are
/// re-driven up to `attempts` times against transient media faults
/// (`retries` counts the re-driven attempts); a persistently unreadable
/// header or payload invalidates the checkpoint and falls back to the
/// sweep, which never depends on the checkpoint region.
pub(crate) fn try_load<D: BlockDev>(
    disk: &mut D,
    layout: &Layout,
    attempts: u32,
    retries: &mut u64,
) -> Result<Option<LoadedState>> {
    let mut count = |_: &mut D, f: FailedRead| *retries += u64::from(f.retried);
    let mut header = vec![0u8; HEADER_BYTES];
    if read_sectors_retrying(disk, 0, &mut header, attempts, &mut count)?.is_some() {
        // Unreadable header: invalidate it outright (writes still work on
        // this fault model) so a later, luckier read cannot resurrect a
        // checkpoint that this start-up's sweep is about to supersede.
        header.fill(0);
        disk.write_sectors(0, &header).map_err(dev)?;
        return Ok(None);
    }
    // A payload segment fails as `Ok(sector)` when unreadable and as
    // `Err` on any other device error.
    let fetch = |seg: u32, chunk: &mut [u8]| {
        let failed =
            read_sectors_retrying(disk, layout.segment_base(seg), chunk, attempts, &mut count);
        failed.transpose().map_or(Ok(()), Err)
    };
    let state = match read(&header, layout, fetch) {
        Ok(view) => Some(into_state(view)),
        // Unreadable payload: invalidate the marker and sweep instead.
        Err(Reject::Fetch(Ok(_))) => None,
        Err(Reject::Fetch(Err(e))) => return Err(e),
        Err(Reject::Absent | Reject::Corrupt(_)) => return Ok(None),
        Err(Reject::Unparsable) => return Err(LdError::Device(format!("checkpoint {UNPARSABLE}"))),
    };
    // Invalidate the marker before handing the state out.
    header[6] = 0;
    disk.write_sectors(0, &header).map_err(dev)?;
    Ok(state)
}
