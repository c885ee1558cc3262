//! LLD — the log-structured implementation of the Logical Disk (paper §3).
//!
//! LLD assumes most reads are absorbed by the file-system cache, so disk
//! traffic is dominated by writes; like Sprite LFS it therefore collects
//! dirty blocks in an in-memory segment and writes each segment to disk in
//! one long contiguous operation. The pieces, mapped to the paper:
//!
//! | Paper | Module |
//! |---|---|
//! | block-number map, list table (Fig. 2) | `block_map` |
//! | segment usage table (§3) | `usage` |
//! | segment summaries as metadata log (§3.1) | `records` |
//! | in-memory segment (§3) | `segbuf` |
//! | partial segments on `Flush` (§3.2) | [`LogicalDisk::flush`] on [`Lld`] |
//! | transparent per-list compression (§3.3) | `write`/`read` + [`ldcomp`] |
//! | memory/disk space requirements (§3.4, Tables 2–3) | [`memory`] |
//! | cleaning and clustering (§3.5) | [`cleaner`] |
//! | one-sweep recovery, ARUs, clean-shutdown checkpoint (§3.6) | [`recovery`], [`checkpoint`] |
//!
//! The public surface is the [`ld_core::LogicalDisk`] trait plus LLD-specific
//! maintenance entry points ([`Lld::clean`], [`Lld::reorganize`],
//! [`Lld::reorganize_hot`]) and introspection ([`Lld::stats`],
//! [`Lld::memory_report`]).
//!
//! # Examples
//!
//! ```
//! use ld_core::{FailureSet, ListHints, LogicalDisk, Pred, PredList};
//! use lld::{Lld, LldConfig};
//! use simdisk::SimDisk;
//!
//! // Format the paper's disk and write a block inside an atomic unit.
//! let disk = SimDisk::hp_c3010_with_capacity(16 << 20);
//! let mut ld = Lld::format(disk, LldConfig::default())?;
//! let file = ld.new_list(PredList::Start, ListHints::default())?;
//! let block = ld_core::with_aru(&mut ld, |ld| {
//!     let b = ld.new_block(file, Pred::Start)?;
//!     ld.write(b, b"durable together")?;
//!     Ok(b)
//! })?;
//! ld.flush(FailureSet::PowerFailure)?;
//!
//! // Crash and recover from the medium alone.
//! let config = ld.config().clone();
//! let mut disk = ld.into_disk();
//! disk.crash_now();
//! disk.revive();
//! let mut ld = Lld::open(disk, config)?;
//! let mut buf = vec![0u8; 4096];
//! assert_eq!(ld.read(block, &mut buf)?, 16);
//! assert_eq!(&buf[..16], b"durable together");
//! # Ok::<(), ld_core::LdError>(())
//! ```

mod block_map;
pub mod checkpoint;
pub mod cleaner;
mod config;
pub mod layout;
pub mod memory;
mod nvram;
pub mod records;
pub mod recovery;
mod segbuf;
mod stats;
mod usage;

pub use block_map::{BlockEntry, NO_SEG, OPEN_SEG, PROVISIONAL_LIST};
pub use cleaner::CleaningPolicy;
pub use config::{CpuModel, LldConfig};
pub use layout::Layout;
pub use memory::{ListGranularity, MemoryModel};
pub use recovery::NVRAM_SEG;
pub use stats::LldStats;
pub use usage::{SegState, SegUsage};

/// Identifier of an open atomic recovery unit (§5.4 concurrent extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AruId(pub(crate) u64);

use std::borrow::Cow;
use std::collections::HashMap;

use ld_core::{
    Bid, FailureSet, LdError, Lid, ListHints, LogicalDisk, Pred, PredList, ReservationId, Result,
};
use simdisk::{BlockDev, DiskError};

use block_map::{BlockMap, ListTable, RankMemo};
use config::DEFAULT_BLOCK_SIZE;
use records::{Record, Stamped};
use segbuf::SegmentBuffer;
use usage::UsageTable;

pub(crate) fn dev(e: DiskError) -> LdError {
    LdError::Device(e.to_string())
}

/// One failed attempt of [`read_sectors_retrying`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct FailedRead {
    /// The sector the medium reported unreadable.
    pub sector: u64,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Simulated time the attempt took.
    pub us: u64,
    /// Whether the read is re-driven (`false` on the last attempt).
    pub retried: bool,
}

/// Reads a sector span, re-driving it up to `attempts` times against
/// transient media faults; `on_fault` sees the device and every failed
/// attempt. This is LLD's one retry loop: [`Lld::read_span_retrying`]
/// hooks in the suspect set, the retry count and a `ReadRetry` event, while
/// checkpoint load and the recovery sweep, which run before an [`Lld`]
/// exists, only count retries. Returns `Ok(None)` on success and
/// `Ok(Some(sector))` when the span stayed unreadable. Non-media errors
/// propagate.
pub(crate) fn read_sectors_retrying<D: BlockDev>(
    disk: &mut D,
    start: u64,
    buf: &mut [u8],
    attempts: u32,
    mut on_fault: impl FnMut(&mut D, FailedRead),
) -> Result<Option<u64>> {
    let attempts = attempts.max(1);
    let mut attempt = 1;
    loop {
        let t0 = disk.now_us();
        match disk.read_sectors(start, buf) {
            Ok(()) => return Ok(None),
            Err(DiskError::Unreadable { sector }) => {
                let retried = attempt < attempts;
                let us = disk.now_us() - t0;
                on_fault(
                    disk,
                    FailedRead {
                        sector,
                        attempt,
                        us,
                        retried,
                    },
                );
                if !retried {
                    return Ok(Some(sector));
                }
                attempt += 1;
            }
            Err(e) => return Err(dev(e)),
        }
    }
}

/// The log-structured Logical Disk.
pub struct Lld<D: BlockDev> {
    pub(crate) disk: D,
    pub(crate) config: LldConfig,
    pub(crate) layout: Layout,
    pub(crate) map: BlockMap,
    pub(crate) lists: ListTable,
    /// The cleaner's list-order ranks, kept across cleaner passes and
    /// dropped by every operation that changes list structure.
    pub(crate) rank_memo: Option<RankMemo>,
    pub(crate) usage: UsageTable,
    pub(crate) open: SegmentBuffer,
    /// Live payload bytes currently in the open segment buffer.
    pub(crate) open_live: u64,
    /// Blocks whose live copy is in the open buffer (superset; entries are
    /// validated against the map when the segment seals).
    pub(crate) open_bids: Vec<u64>,
    /// Next record timestamp (a global operation counter, paper §3.1).
    pub(crate) ts: u64,
    /// Next physical segment-write sequence number.
    pub(crate) seq: u64,
    /// Durable scratch copy of the current partial segment (§3.2).
    pub(crate) scratch: Option<u32>,
    /// Segments reclaimed by the cleaner, released once the open segment
    /// (holding the forwarded copies) is durably written.
    pub(crate) pending_free: Vec<u32>,
    /// Placement hint: segment id near which to allocate next.
    pub(crate) last_seg_hint: u32,
    /// Sum of size classes of all allocated blocks.
    pub(crate) allocated_logical: u64,
    pub(crate) reservations: HashMap<u64, u64>,
    pub(crate) next_reservation: u64,
    pub(crate) reserved_bytes: u64,
    /// Open explicit atomic recovery units (§5.4 concurrent extension).
    pub(crate) open_arus: std::collections::HashSet<u64>,
    /// The ARU subsequent operations are tagged with, if any.
    pub(crate) active_aru: Option<u64>,
    pub(crate) next_aru_id: u64,
    pub(crate) shut_down: bool,
    /// Re-entrancy guard, up inside the cleaner's `guarded` sections:
    /// seals there must not start the cleaner.
    pub(crate) cleaning: bool,
    /// Anything logged or buffered since the last durable write.
    pub(crate) dirty: bool,
    /// Per-block access counts (reads + writes), for the adaptive
    /// rearrangement of §5.3 (Akyürek & Salem: "as LD can rearrange blocks
    /// dynamically, the proposed scheme can be applied to LD too").
    /// Indexed by block number; saturating; halved by each
    /// [`reorganize_hot`](Self::reorganize_hot) so estimates age out.
    pub(crate) heat: Vec<u32>,
    pub(crate) stats: LldStats,
    /// Tagged command queue (present iff `config.queue_depth >= 1`).
    /// Segment writes submit here; every direct read or write of the
    /// medium first drains it, so queued writes are never reordered
    /// against unqueued I/O.
    pub(crate) queue: Option<simdisk::RequestQueue>,
    /// An NVRAM invalidation deferred because the seal that supersedes
    /// the NVRAM image is still in flight in the queue. Invalidating
    /// earlier would open a crash window where neither the NVRAM nor the
    /// medium holds acknowledged data.
    pub(crate) nvram_invalidate_deferred: bool,
    /// Persistent bad-block remap table: sectors confirmed unreadable whose
    /// live data (if any) has been relocated. Carried through checkpoints.
    pub(crate) bad_sectors: std::collections::BTreeSet<u64>,
    /// Sectors that failed at least one read attempt since the last scrub;
    /// [`scrub`](Self::scrub) probes them and either clears or retires them.
    pub(crate) suspect_sectors: std::collections::BTreeSet<u64>,
}

impl<D: BlockDev> std::fmt::Debug for Lld<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lld")
            .field("segments", &self.layout.segments)
            .field("blocks", &self.map.allocated())
            .field("lists", &self.lists.allocated())
            .field("free_segments", &self.usage.free_count())
            .finish_non_exhaustive()
    }
}

impl<D: BlockDev> Lld<D> {
    /// Formats the device and creates a fresh, empty LLD.
    ///
    /// Formatting invalidates the checkpoint header and every segment
    /// summary so that stale state from a previous instance cannot
    /// resurrect during a later recovery sweep.
    pub fn format(mut disk: D, config: LldConfig) -> Result<Self> {
        config.validate();
        let layout = Layout::compute(
            disk.total_sectors(),
            config.segment_bytes,
            config.summary_bytes,
        );
        // Invalidate the checkpoint header.
        let zeros = vec![0u8; (layout::HEADER_SECTORS as usize) * simdisk::SECTOR_SIZE];
        disk.write_sectors(0, &zeros).map_err(dev)?;
        // Invalidate all summaries (one zeroed sector kills the magic).
        let sector = vec![0u8; simdisk::SECTOR_SIZE];
        for seg in 0..layout.segments {
            disk.write_sectors(layout.summary_base(seg), &sector)
                .map_err(dev)?;
        }
        Ok(Self::from_parts(
            disk,
            config,
            layout,
            BlockMap::new(),
            ListTable::new(),
            UsageTable::new(layout.segments),
            1,
            1,
        ))
    }

    /// Opens an existing LLD: loads the clean-shutdown checkpoint if one is
    /// valid, otherwise performs the one-sweep recovery over all segment
    /// summaries (paper §3.6).
    pub fn open(disk: D, config: LldConfig) -> Result<Self> {
        config.validate();
        recovery::open(disk, config)
    }

    #[allow(clippy::too_many_arguments)] // Internal constructor gathering recovered state.
    pub(crate) fn from_parts(
        disk: D,
        config: LldConfig,
        layout: Layout,
        map: BlockMap,
        lists: ListTable,
        usage: UsageTable,
        ts: u64,
        seq: u64,
    ) -> Self {
        let allocated_logical = map.iter().map(|(_, e)| u64::from(e.size_class)).sum();
        let open = SegmentBuffer::new(layout.data_bytes, layout.summary_bytes);
        let queue = (config.queue_depth >= 1).then(|| simdisk::RequestQueue::new(config.scheduler));
        Self {
            disk,
            config,
            layout,
            map,
            lists,
            rank_memo: None,
            usage,
            open,
            open_live: 0,
            open_bids: Vec::new(),
            ts,
            seq,
            scratch: None,
            pending_free: Vec::new(),
            last_seg_hint: 0,
            allocated_logical,
            reservations: HashMap::new(),
            next_reservation: 1,
            reserved_bytes: 0,
            open_arus: std::collections::HashSet::new(),
            active_aru: None,
            next_aru_id: 1,
            shut_down: false,
            cleaning: false,
            dirty: false,
            heat: Vec::new(),
            stats: LldStats::default(),
            queue,
            nvram_invalidate_deferred: false,
            bad_sectors: std::collections::BTreeSet::new(),
            suspect_sectors: std::collections::BTreeSet::new(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LldStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = LldStats::default();
    }

    /// The active configuration.
    pub fn config(&self) -> &LldConfig {
        &self.config
    }

    /// The computed disk layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Immutable access to the underlying device (clock, disk stats).
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Mutable access to the underlying device (e.g. to arm faults).
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.disk
    }

    /// Consumes the LLD, returning the device — used by crash tests, which
    /// drop all in-memory state ("crash") and re-open from the medium.
    pub fn into_disk(self) -> D {
        self.disk
    }

    /// Number of free segments.
    pub fn free_segments(&self) -> u32 {
        self.usage.free_count()
    }

    /// Statistics of the tagged command queue (depth histogram inputs,
    /// coalescing counters), when queueing is on.
    pub fn queue_stats(&self) -> Option<simdisk::QueueStats> {
        self.queue.as_ref().map(|q| *q.stats())
    }

    /// The persistent bad-block remap table: sectors retired after
    /// confirmed media faults, in ascending order.
    pub fn bad_sector_table(&self) -> Vec<u64> {
        self.bad_sectors.iter().copied().collect()
    }

    /// Sectors that failed at least one read since the last scrub and have
    /// not yet been probed (diagnostic; [`scrub`](Self::scrub) drains it).
    pub fn suspect_sector_count(&self) -> usize {
        self.suspect_sectors.len()
    }

    /// Number of quarantined segments (retired from circulation because of
    /// media faults).
    pub fn quarantined_segments(&self) -> u32 {
        self.usage
            .iter()
            .filter(|(_, u)| u.state == usage::SegState::Quarantined)
            .count() as u32
    }

    /// The list of lists, front to back.
    pub fn list_of_lists(&self) -> Vec<Lid> {
        self.lists.order().into_iter().map(Lid).collect()
    }

    /// The hints list `lid` was created with (`None` if it does not exist).
    pub fn list_hints(&self, lid: Lid) -> Option<ListHints> {
        self.lists.get(lid.0).map(|l| l.hints)
    }

    /// The physical segment currently holding `bid`'s live copy, if it is
    /// on disk (introspection for clustering experiments).
    pub fn block_segment(&self, bid: Bid) -> Option<u32> {
        let e = self.map.get(bid.0)?;
        e.on_disk().then_some(e.seg)
    }

    // ----- concurrent atomic recovery units (§5.4 extension) -----

    /// Opens a new atomic recovery unit and returns its identifier without
    /// activating it — the §5.4 extension ("each operation could take an
    /// atomic recovery unit identifier as an argument; BeginARU would
    /// generate these identifiers"). Use [`activate_aru`](Self::activate_aru)
    /// to direct subsequent operations into it; any number of units may be
    /// open at once, and each commits independently at its
    /// [`end_aru_id`](Self::end_aru_id).
    pub fn begin_aru_id(&mut self) -> Result<AruId> {
        self.check_up()?;
        let id = self.next_aru_id;
        self.next_aru_id += 1;
        self.open_arus.insert(id);
        Ok(AruId(id))
    }

    /// Selects which open unit subsequent operations belong to (`None` =
    /// ordinary, individually-committed operations).
    pub fn activate_aru(&mut self, aru: Option<AruId>) -> Result<()> {
        self.check_up()?;
        if let Some(AruId(id)) = aru {
            if !self.open_arus.contains(&id) {
                return Err(LdError::NoAruOpen);
            }
        }
        self.active_aru = aru.map(|a| a.0);
        Ok(())
    }

    /// Commits an open unit: all of its operations become recoverable
    /// together, all-or-nothing.
    pub fn end_aru_id(&mut self, aru: AruId) -> Result<()> {
        self.check_up()?;
        if !self.open_arus.remove(&aru.0) {
            return Err(LdError::NoAruOpen);
        }
        if self.active_aru == Some(aru.0) {
            self.active_aru = None;
        }
        self.ensure_room(0, 1)?;
        let ts = self.next_ts();
        self.open.push_record(Stamped {
            ts,
            ends_aru: true,
            aru: Some(aru.0),
            rec: Record::EndAru,
        });
        self.stats.records_logged += 1;
        self.dirty = true;
        Ok(())
    }

    // ----- internal plumbing -----

    pub(crate) fn check_up(&self) -> Result<()> {
        if self.shut_down {
            Err(LdError::ShutDown)
        } else {
            Ok(())
        }
    }

    pub(crate) fn next_ts(&mut self) -> u64 {
        let t = self.ts;
        self.ts += 1;
        t
    }

    pub(crate) fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Bumps a block's access-frequency estimate.
    pub(crate) fn touch(&mut self, bid: u64) {
        let idx = bid as usize;
        if idx >= self.heat.len() {
            self.heat.resize(idx + 1, 0);
        }
        self.heat[idx] = self.heat[idx].saturating_add(1);
    }

    pub(crate) fn charge_cpu(&mut self, us: u64) {
        if us > 0 {
            self.disk.advance_us(us);
        }
    }

    /// Per-step list CPU cost; zero when list maintenance is disabled
    /// (the §4.2 "version of MINIX LLD that does not support lists").
    pub(crate) fn list_cpu(&self) -> u64 {
        if self.config.maintain_lists {
            self.config.cpu.per_list_op_us
        } else {
            0
        }
    }

    /// CPU cost of one in-memory list-walk step — a pointer chase, much
    /// cheaper than a full list operation (which creates a link tuple).
    pub(crate) fn walk_cpu(&self) -> u64 {
        self.list_cpu() / 4
    }

    fn is_list_record(rec: &Record) -> bool {
        matches!(
            rec,
            Record::Link { .. }
                | Record::ListHead { .. }
                | Record::NewList { .. }
                | Record::DeleteList { .. }
                | Record::ListOrder { .. }
        )
    }

    /// Applies `rec` to the block map and list table through
    /// [`block_map::apply`], the function the recovery sweep replays it
    /// with, then logs it. Callers must have reserved summary room.
    pub(crate) fn commit(&mut self, rec: Record) {
        block_map::apply(&mut self.map, &mut self.lists, OPEN_SEG, &rec);
        self.log(rec);
    }

    /// [`commit`](Self::commit), logged outside any user ARU.
    pub(crate) fn commit_internal(&mut self, rec: Record) {
        block_map::apply(&mut self.map, &mut self.lists, OPEN_SEG, &rec);
        self.log_internal(rec);
    }

    /// Logs a record outside any user ARU (cleaner/reorganizer traffic).
    /// With per-record ARU ids this cannot break a concurrent unit's
    /// atomicity.
    pub(crate) fn log_internal(&mut self, rec: Record) {
        let saved = self.active_aru.take();
        self.log(rec);
        self.active_aru = saved;
    }

    /// Logs a record with a fresh timestamp. Callers must have reserved
    /// summary room via [`ensure_room`](Self::ensure_room).
    pub(crate) fn log(&mut self, rec: Record) {
        if Self::is_list_record(&rec) {
            if !self.config.maintain_lists {
                // List maintenance disabled (§4.2 overhead experiment):
                // in-memory structure is kept, nothing is logged.
                return;
            }
            self.stats.list_records_logged += 1;
        }
        let ts = self.next_ts();
        self.open.push_record(Stamped {
            ts,
            ends_aru: self.active_aru.is_none(),
            aru: self.active_aru,
            rec,
        });
        self.stats.records_logged += 1;
        self.dirty = true;
    }

    /// Seals the open segment (repeatedly, though once always suffices)
    /// until `bytes` of data and `records` summary records fit.
    pub(crate) fn ensure_room(&mut self, bytes: usize, records: usize) -> Result<()> {
        if bytes > self.layout.data_bytes {
            return Err(LdError::BlockTooLarge {
                got: bytes,
                max: self.layout.data_bytes,
            });
        }
        while !self.open.has_room(bytes, records) {
            self.seal()?;
        }
        Ok(())
    }

    /// Dispatches queued requests until at most `allow` remain pending,
    /// propagating the first device failure (a failed queued write is a
    /// dying drive; the rest of the queue is abandoned like a powered-off
    /// controller's). No-op when queueing is off.
    pub(crate) fn drain_queue_to(&mut self, allow: usize) -> Result<()> {
        let Some(q) = self.queue.as_mut() else {
            return Ok(());
        };
        while q.len() > allow {
            let Some(c) = q.dispatch_one(&mut self.disk) else {
                break;
            };
            if let Err(e) = c.result {
                q.abandon();
                return Err(dev(e));
            }
        }
        if self.nvram_invalidate_deferred && self.queue.as_ref().is_some_and(|q| q.is_empty()) {
            self.nvram_invalidate_deferred = false;
            self.invalidate_nvram();
        }
        Ok(())
    }

    /// Fully drains the command queue. Every direct read or write of the
    /// medium calls this first, so queued writes are never reordered
    /// against unqueued I/O — the fence that keeps write-behind
    /// crash-consistent.
    pub(crate) fn drain_queue(&mut self) -> Result<()> {
        if self.queue.as_ref().is_some_and(|q| !q.is_empty()) {
            self.stats.queue_drains += 1;
        }
        self.drain_queue_to(0)
    }

    /// Adjusts accounting when a block's old copy dies (rewrite or delete).
    pub(crate) fn kill_copy(&mut self, entry: &block_map::BlockEntry) {
        if entry.seg == OPEN_SEG {
            self.open_live -= u64::from(entry.stored_len);
        } else if entry.on_disk() {
            self.usage.sub_live(entry.seg, u64::from(entry.stored_len));
        }
    }

    /// Writes the open segment to a free physical segment in a single disk
    /// operation, then releases superseded scratch/pending segments and, if
    /// the free pool ran low, runs the cleaner.
    pub(crate) fn seal(&mut self) -> Result<()> {
        if self.open.is_empty() {
            return Ok(());
        }
        let seg = self
            .usage
            .alloc_near(self.last_seg_hint)
            .ok_or(LdError::NoSpace)?;
        let seq = self.next_seq();
        let fill_bytes = self.open.data_used() as u64;
        let base = self.layout.segment_base(seg);
        let t0 = self.disk.now_us();
        if let Some(q) = self.queue.as_mut() {
            // Write-behind: hand the image to the queue and only drain
            // down to the allowance. Submission costs no simulated time;
            // the device time is paid when the scheduler dispatches
            // (possibly coalesced with an adjacent seal).
            q.submit_write(&self.disk, base, self.open.take_sealed(seq));
            self.stats.queued_segment_writes += 1;
        } else {
            self.disk
                .write_sectors(base, self.open.seal(seq))
                .map_err(dev)?;
        }
        // Re-point blocks whose live copy was in memory: the image is in
        // the queue or on the medium now, and no longer in the buffer.
        for bid in std::mem::take(&mut self.open_bids) {
            if let Some(e) = self.map.get_mut(bid) {
                if e.seg == OPEN_SEG {
                    e.seg = seg;
                }
            }
        }
        self.drain_queue_to(self.config.writeback_allowance())?;
        let write_us = self.disk.now_us() - t0;
        self.disk.trace(ld_trace::Event::SegmentSeal {
            seg,
            write_seq: seq,
            fill_bytes,
            cap_bytes: self.layout.data_bytes as u64,
        });
        // Compression pipeline (§3.3): this segment's compression CPU
        // overlapped the previous write; in steady state each segment costs
        // max(compress, write).
        let extra = self.open.compress_us_pending.saturating_sub(write_us);
        self.charge_cpu(extra);

        // alloc_near marked the segment Live with zero bytes.
        self.usage.add_live(seg, self.open_live, self.ts);
        if let Some(s) = self.scratch.take() {
            self.usage.release(s);
        }
        for s in std::mem::take(&mut self.pending_free) {
            self.usage.release(s);
        }
        self.open_live = 0;
        self.open.reset();
        self.last_seg_hint = seg;
        self.dirty = false;
        self.stats.segments_sealed += 1;
        if self.queue.as_ref().is_some_and(|q| !q.is_empty()) {
            // The seal superseding the NVRAM image is still in flight;
            // invalidate only once it is on the medium (see
            // `nvram_invalidate_deferred`).
            self.nvram_invalidate_deferred = true;
        } else {
            self.invalidate_nvram();
        }

        if self.usage.free_count() <= self.config.cleaning_reserve_segments && !self.cleaning {
            // Per-record ARU ids let cleaner records interleave with open
            // units without breaking their atomicity, so cleaning never
            // needs to be deferred for ARUs.
            self.clean_to_reserve()?;
        }
        Ok(())
    }

    /// Writes the current (below-threshold) segment contents to a scratch
    /// segment without giving up the in-memory copy — the paper's partial
    /// segment strategy (§3.2). Costs one extra seek and write; the scratch
    /// is recycled with zero cleaning work when the segment seals.
    pub(crate) fn partial_flush(&mut self) -> Result<()> {
        // The partial image is written directly; earlier queued seals must
        // be on the medium first (log-order fence).
        self.drain_queue()?;
        let seg = self
            .usage
            .alloc_near(self.last_seg_hint)
            .ok_or(LdError::NoSpace)?;
        self.usage.mark_scratch(seg);
        let seq = self.next_seq();
        let flushed_bytes = self.open.data_used() as u64;
        let (prefix, summary) = self.open.encode_partial(seq);
        let t0 = self.disk.now_us();
        if !prefix.is_empty() {
            self.disk
                .write_sectors(self.layout.segment_base(seg), &prefix)
                .map_err(dev)?;
        }
        self.disk
            .write_sectors(self.layout.summary_base(seg), &summary)
            .map_err(dev)?;
        let write_us = self.disk.now_us() - t0;
        let extra = self.open.compress_us_pending.saturating_sub(write_us);
        self.charge_cpu(extra);
        self.open.compress_us_pending = 0;

        if let Some(old) = self.scratch.replace(seg) {
            self.usage.release(old);
        }
        for s in std::mem::take(&mut self.pending_free) {
            self.usage.release(s);
        }
        self.dirty = false;
        self.stats.partial_segment_writes += 1;
        self.disk.trace(ld_trace::Event::PartialWrite {
            seg,
            bytes: flushed_bytes,
        });
        self.invalidate_nvram();
        Ok(())
    }

    /// Saves the open segment's contents into the device's battery-backed
    /// NVRAM, if it has enough — absorbing a below-threshold flush without
    /// any disk write, the Baker et al. extension of §5.3. Returns whether
    /// it succeeded.
    pub(crate) fn try_nvram_save(&mut self) -> Result<bool> {
        let capacity = self.disk.nvram_bytes();
        let needed = nvram::image_len(
            self.open.data_used().div_ceil(simdisk::SECTOR_SIZE) * simdisk::SECTOR_SIZE,
            self.layout.summary_bytes,
        );
        if capacity < needed {
            return Ok(false);
        }
        // The NVRAM image acknowledges the open tail as durable; records
        // it holds must never outlive seals still in flight, so fence.
        self.drain_queue()?;
        let seq = self.next_seq();
        let (prefix, summary) = self.open.encode_partial(seq);
        let image = nvram::encode_image(&prefix, &summary);
        self.disk.nvram_write(0, &image).map_err(dev)?;
        self.dirty = false;
        self.stats.nvram_saves += 1;
        Ok(true)
    }

    /// Clears any NVRAM image (its contents just became durable on disk).
    pub(crate) fn invalidate_nvram(&mut self) {
        if self.disk.nvram_bytes() >= nvram::INVALIDATE.len() {
            // Best effort: a lost or failed write leaves the image for the
            // next recovery, which replays nothing twice. A tail a seal or
            // partial write has since carried to disk loses to that newer
            // copy of its records, and one recovery has materialized is
            // recognised by its summary seq and only invalidated again.
            let _ = self.disk.nvram_write(0, &nvram::INVALIDATE);
        }
    }

    /// Walks a list front to back, with a cycle guard.
    pub(crate) fn walk_list(&self, lid: u64) -> Vec<u64> {
        let mut out = Vec::new();
        let Some(entry) = self.lists.get(lid) else {
            return out;
        };
        let limit = self.map.allocated() + 1;
        let mut cur = entry.first;
        while let Some(bid) = cur {
            out.push(bid);
            if out.len() > limit {
                // A cycle would be an invariant violation; stop rather than
                // spin. Debug builds scream.
                debug_assert!(false, "cycle in list {lid}");
                break;
            }
            cur = self.map.get(bid).and_then(|e| e.next);
        }
        out
    }

    /// Finds the predecessor of `bid` on `lid`, using the hint when it is
    /// correct and falling back to a front-to-back search (paper Table 1).
    /// Returns `Ok(None)` when `bid` is the head. Charges list CPU per
    /// search step.
    fn find_pred(&mut self, lid: u64, bid: u64, hint: Option<u64>) -> Result<Option<u64>> {
        if let Some(h) = hint {
            let ok = self
                .map
                .get(h)
                .is_some_and(|e| e.list == lid && e.next == Some(bid));
            self.charge_cpu(self.list_cpu());
            if ok {
                return Ok(Some(h));
            }
        }
        let list = self.lists.get(lid).ok_or(LdError::UnknownList(Lid(lid)))?;
        if list.first == Some(bid) {
            return Ok(None);
        }
        let mut steps = 0u64;
        let mut cur = list.first;
        while let Some(c) = cur {
            steps += 1;
            let next = self.map.get(c).and_then(|e| e.next);
            if next == Some(bid) {
                self.charge_cpu(steps * self.walk_cpu());
                return Ok(Some(c));
            }
            cur = next;
        }
        self.charge_cpu(steps * self.walk_cpu());
        Err(LdError::NotOnList {
            bid: Bid(bid),
            lid: Lid(lid),
        })
    }

    /// Reads a sector span, re-driving the request up to the configured
    /// retry budget when the medium reports a fault. Each failed attempt
    /// consumed real simulated disk time (attributed to the mechanical
    /// components it used); each re-driven one is counted and traced as a
    /// `ReadRetry` event. Returns `Ok(None)` on success and
    /// `Ok(Some(sector))` when the span stayed unreadable; the failing
    /// sector joins the suspect set either way so a later
    /// [`scrub`](Self::scrub) can probe and retire it.
    pub(crate) fn read_span_retrying(&mut self, start: u64, buf: &mut [u8]) -> Result<Option<u64>> {
        // A direct read must observe every queued write (the queue itself
        // orders only its own requests).
        self.drain_queue()?;
        let attempts = self.config.read_retries;
        read_sectors_retrying(&mut self.disk, start, buf, attempts, |disk, f| {
            self.suspect_sectors.insert(f.sector);
            if f.retried {
                self.stats.retries += 1;
                disk.trace(ld_trace::Event::ReadRetry {
                    sector: f.sector,
                    attempt: u64::from(f.attempt),
                    us: f.us,
                });
            }
        })
    }

    /// Reads the stored bytes of block copy `e` into `out`, which is
    /// `e.stored_len` bytes long: from the open buffer, or from disk.
    fn read_stored(&mut self, e: &block_map::BlockEntry, out: &mut [u8]) -> Result<()> {
        if e.stored_len == 0 {
            // A zero-length write leaves nothing on the medium to fetch.
            return Ok(());
        }
        if e.seg == OPEN_SEG {
            self.stats.block_reads_from_memory += 1;
            out.copy_from_slice(self.open.read(e.offset, e.stored_len));
            return Ok(());
        }
        if !self.read_copy_into(e, out)? {
            self.stats.unreadable_blocks += 1;
            return Err(LdError::Device(format!(
                "media fault: block copy at segment {} offset {} unreadable after {} attempts",
                e.seg,
                e.offset,
                self.config.read_retries.max(1)
            )));
        }
        Ok(())
    }

    /// Reads the on-disk block copy `e` describes, re-driving the read up
    /// to the retry budget. Returns `None` when it stayed unreadable (the
    /// failing sector has joined the suspect set).
    pub(crate) fn read_copy(&mut self, e: &block_map::BlockEntry) -> Result<Option<Vec<u8>>> {
        let mut bytes = vec![0u8; e.stored_len as usize];
        Ok(self.read_copy_into(e, &mut bytes)?.then_some(bytes))
    }

    /// [`read_copy`](Self::read_copy) into `out`, which is `e.stored_len`
    /// bytes long; `false` when the copy stayed unreadable, with `out`'s
    /// contents then unspecified. A copy whose span is whole sectors is read
    /// straight into `out`; any other is staged through a buffer of the
    /// sectors it touches.
    fn read_copy_into(&mut self, e: &block_map::BlockEntry, out: &mut [u8]) -> Result<bool> {
        let (start, count) =
            self.layout
                .data_sector_span(e.seg, e.offset as usize, e.stored_len as usize);
        let span = count as usize * simdisk::SECTOR_SIZE;
        let begin = e.offset as usize % simdisk::SECTOR_SIZE;
        if begin == 0 && span == out.len() {
            return Ok(self.read_span_retrying(start, out)?.is_none());
        }
        let mut sectors = vec![0u8; span];
        if self.read_span_retrying(start, &mut sectors)?.is_some() {
            return Ok(false);
        }
        out.copy_from_slice(&sectors[begin..begin + out.len()]);
        Ok(true)
    }
}

impl<D: BlockDev> LogicalDisk for Lld<D> {
    fn default_block_size(&self) -> usize {
        DEFAULT_BLOCK_SIZE
    }

    fn capacity_bytes(&self) -> u64 {
        let payload_segments = self
            .layout
            .segments
            .saturating_sub(self.config.cleaning_reserve_segments);
        u64::from(payload_segments) * self.layout.data_bytes as u64
    }

    fn free_bytes(&self) -> u64 {
        self.capacity_bytes()
            .saturating_sub(self.allocated_logical)
            .saturating_sub(self.reserved_bytes)
    }

    fn read(&mut self, bid: Bid, buf: &mut [u8]) -> Result<usize> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        let e = *self.map.get(bid.0).ok_or(LdError::UnknownBlock(bid))?;
        if buf.len() < e.logical_len as usize {
            return Err(LdError::BufferTooSmall {
                need: e.logical_len as usize,
                got: buf.len(),
            });
        }
        self.stats.block_reads += 1;
        self.touch(bid.0);
        if e.seg == NO_SEG {
            return Ok(0);
        }
        let n = e.stored_len as usize;
        if !e.compressed {
            // Stored as written, so no longer than `buf`: read in place.
            self.read_stored(&e, &mut buf[..n])?;
            return Ok(n);
        }
        let mut stored = vec![0u8; n];
        self.read_stored(&e, &mut stored)?;
        let data = ldcomp::decompress(&stored)
            .map_err(|err| LdError::Device(format!("stored block corrupt: {err}")))?;
        self.charge_cpu(self.config.compression_cost.decompress_us(data.len()));
        debug_assert_eq!(data.len(), e.logical_len as usize);
        buf[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }

    fn write(&mut self, bid: Bid, data: &[u8]) -> Result<()> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        let e = *self.map.get(bid.0).ok_or(LdError::UnknownBlock(bid))?;
        if data.len() > e.size_class as usize {
            return Err(LdError::BlockTooLarge {
                got: data.len(),
                max: e.size_class as usize,
            });
        }
        let compress = self.lists.get(e.list).is_some_and(|l| l.hints.compress);
        let (stored, compressed) = if compress {
            (Cow::Owned(ldcomp::compress(data)), true)
        } else {
            (Cow::Borrowed(data), false)
        };
        self.ensure_room(stored.len(), 1)?;
        if compressed {
            self.open.compress_us_pending += self.config.compression_cost.compress_us(data.len());
        }
        // The seal inside ensure_room may have moved the old copy to disk;
        // re-read the entry before killing it.
        let old = *self.map.get(bid.0).expect("entry verified above"); // PANIC-OK: presence checked at the top of the function
        self.kill_copy(&old);
        let offset = self.open.append_data(&stored);
        self.commit(Record::WriteBlock {
            bid: bid.0,
            offset,
            stored_len: stored.len() as u32,
            logical_len: data.len() as u32,
            compressed,
        });
        self.open_live += stored.len() as u64;
        self.open_bids.push(bid.0);
        self.touch(bid.0);
        self.stats.block_writes += 1;
        self.stats.user_bytes_written += data.len() as u64;
        self.stats.stored_bytes_written += stored.len() as u64;
        let copy_units = data.len().div_ceil(4096) as u64;
        self.charge_cpu(copy_units * self.config.cpu.per_block_copy_us);
        Ok(())
    }

    fn new_block_with_size(&mut self, lid: Lid, pred: Pred, size: usize) -> Result<Bid> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        if size == 0 || size > self.layout.data_bytes || size > u32::MAX as usize {
            return Err(LdError::UnsupportedBlockSize(size));
        }
        if self.lists.get(lid.0).is_none() {
            return Err(LdError::UnknownList(lid));
        }
        if self.free_bytes() < size as u64 {
            return Err(LdError::NoSpace);
        }
        // Validate the predecessor before mutating anything.
        if let Pred::After(p) = pred {
            let ok = self.map.get(p.0).is_some_and(|e| e.list == lid.0);
            if !ok {
                return Err(LdError::NotOnList { bid: p, lid });
            }
        }
        self.ensure_room(0, 3)?;
        // After `ensure_room`: a seal in it may clean, and cleaning fills
        // the memo from the structure this operation is about to change.
        self.rank_memo = None;
        let bid = self.map.alloc(lid.0, size as u32);
        self.allocated_logical += size as u64;
        self.log(Record::NewBlock {
            bid,
            lid: lid.0,
            size_class: size as u32,
        });
        let next = match pred {
            Pred::Start => {
                let old_head = self.lists.get(lid.0).and_then(|l| l.first);
                self.commit(Record::ListHead {
                    lid: lid.0,
                    first: Some(bid),
                });
                old_head
            }
            Pred::After(p) => {
                let old_next = self.map.get(p.0).and_then(|e| e.next);
                self.commit(Record::Link {
                    bid: p.0,
                    next: Some(bid),
                });
                old_next
            }
        };
        self.commit(Record::Link { bid, next });
        self.charge_cpu(2 * self.list_cpu());
        Ok(Bid(bid))
    }

    fn delete_block(&mut self, bid: Bid, lid: Lid, pred_hint: Option<Bid>) -> Result<()> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        let e = *self.map.get(bid.0).ok_or(LdError::UnknownBlock(bid))?;
        if e.list != lid.0 {
            return Err(LdError::NotOnList { bid, lid });
        }
        let pred = self.find_pred(lid.0, bid.0, pred_hint.map(|b| b.0))?;
        self.ensure_room(0, 2)?;
        self.rank_memo = None;
        // The entry may have moved during a seal; its links are unchanged.
        let e = *self.map.get(bid.0).expect("entry verified above"); // PANIC-OK: presence checked at the top of the function
        self.commit(match pred {
            None => Record::ListHead {
                lid: lid.0,
                first: e.next,
            },
            Some(p) => Record::Link {
                bid: p,
                next: e.next,
            },
        });
        self.kill_copy(&e);
        self.allocated_logical -= u64::from(e.size_class);
        self.commit(Record::DeleteBlock { bid: bid.0 });
        self.charge_cpu(self.list_cpu());
        Ok(())
    }

    fn new_list(&mut self, pred: PredList, hints: ListHints) -> Result<Lid> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        let pred_raw = match pred {
            PredList::Start => None,
            PredList::After(l) => {
                if self.lists.get(l.0).is_none() {
                    return Err(LdError::UnknownList(l));
                }
                Some(l.0)
            }
        };
        self.ensure_room(0, 1)?;
        self.rank_memo = None;
        let lid = self
            .lists
            .alloc(pred_raw, hints)
            .expect("predecessor verified above"); // PANIC-OK: presence checked at the top of the function
        self.log(Record::NewList {
            lid,
            pred: pred_raw,
            hints,
        });
        self.charge_cpu(self.list_cpu());
        Ok(Lid(lid))
    }

    fn delete_list(&mut self, lid: Lid, pred_hint: Option<Lid>) -> Result<()> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        if self.lists.get(lid.0).is_none() {
            return Err(LdError::UnknownList(lid));
        }
        let blocks = self.walk_list(lid.0);
        self.ensure_room(0, 1)?;
        self.rank_memo = None;
        for bid in &blocks {
            let e = *self.map.get(*bid).expect("walked from live list"); // PANIC-OK: the bid was read off the chain just walked
            self.kill_copy(&e);
            self.allocated_logical -= u64::from(e.size_class);
            self.map.free(*bid);
        }
        self.lists.free(lid.0, pred_hint.map(|l| l.0));
        self.log(Record::DeleteList { lid: lid.0 });
        // One real list operation (the unlink + tuple) plus a cheap
        // pointer-chase per freed block.
        self.charge_cpu(self.list_cpu() + blocks.len() as u64 * self.walk_cpu());
        Ok(())
    }

    fn begin_aru(&mut self) -> Result<()> {
        self.check_up()?;
        if self.active_aru.is_some() {
            // The Table 1 interface is serial; concurrent units use the
            // §5.4 extension (`begin_aru_id`/`activate_aru`).
            return Err(LdError::AruAlreadyOpen);
        }
        let id = self.begin_aru_id()?;
        self.active_aru = Some(id.0);
        Ok(())
    }

    fn end_aru(&mut self) -> Result<()> {
        self.check_up()?;
        let Some(id) = self.active_aru else {
            return Err(LdError::NoAruOpen);
        };
        self.end_aru_id(AruId(id))
    }

    fn flush(&mut self, _failures: FailureSet) -> Result<()> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        if !self.dirty || self.open.is_empty() {
            self.dirty = false;
            return Ok(());
        }
        if self.open.fill_pct() >= self.config.flush_threshold_pct {
            self.seal()?;
            self.stats.flush_seals += 1;
        } else if !self.try_nvram_save()? {
            self.partial_flush()?;
        }
        // Flush is the durability point: nothing may stay in flight.
        self.drain_queue()?;
        Ok(())
    }

    fn flush_list(&mut self, lid: Lid) -> Result<()> {
        self.check_up()?;
        if self.lists.get(lid.0).is_none() {
            return Err(LdError::UnknownList(lid));
        }
        // Durability is a property of the shared log; flushing one list
        // flushes the segment (the fsync mapping the paper describes).
        self.flush(FailureSet::PowerFailure)
    }

    fn reserve(&mut self, bytes: u64) -> Result<ReservationId> {
        self.check_up()?;
        if self.free_bytes() < bytes {
            return Err(LdError::NoSpace);
        }
        let id = ReservationId(self.next_reservation);
        self.next_reservation += 1;
        self.reserved_bytes += bytes;
        self.reservations.insert(id.0, bytes);
        Ok(id)
    }

    fn cancel_reservation(&mut self, id: ReservationId) -> Result<()> {
        self.check_up()?;
        let bytes = self
            .reservations
            .remove(&id.0)
            .ok_or(LdError::UnknownReservation(id))?;
        self.reserved_bytes -= bytes;
        Ok(())
    }

    fn draw_reservation(&mut self, id: ReservationId, bytes: u64) -> Result<()> {
        self.check_up()?;
        let left = self
            .reservations
            .get_mut(&id.0)
            .ok_or(LdError::UnknownReservation(id))?;
        let take = bytes.min(*left);
        *left -= take;
        self.reserved_bytes -= take;
        if *left == 0 {
            self.reservations.remove(&id.0);
        }
        Ok(())
    }

    fn move_sublist(
        &mut self,
        src: Lid,
        first: Bid,
        last: Bid,
        dst: Lid,
        dst_pred: Pred,
    ) -> Result<()> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        if self.lists.get(src.0).is_none() {
            return Err(LdError::UnknownList(src));
        }
        if self.lists.get(dst.0).is_none() {
            return Err(LdError::UnknownList(dst));
        }
        // Collect the chain first..=last on src.
        let mut chain = Vec::new();
        let mut cur = Some(first.0);
        let limit = self.map.allocated() + 1;
        loop {
            let Some(c) = cur else {
                return Err(LdError::NotOnList {
                    bid: last,
                    lid: src,
                });
            };
            let e = self.map.get(c).ok_or(LdError::UnknownBlock(Bid(c)))?;
            if e.list != src.0 {
                return Err(LdError::NotOnList {
                    bid: Bid(c),
                    lid: src,
                });
            }
            chain.push(c);
            if c == last.0 {
                break;
            }
            if chain.len() > limit {
                return Err(LdError::NotOnList {
                    bid: last,
                    lid: src,
                });
            }
            cur = e.next;
        }
        // The destination predecessor must be on dst and outside the chain.
        if let Pred::After(p) = dst_pred {
            let on_dst = self.map.get(p.0).is_some_and(|e| e.list == dst.0);
            if !on_dst || chain.contains(&p.0) {
                return Err(LdError::NotOnList { bid: p, lid: dst });
            }
        }
        let src_pred = self.find_pred(src.0, first.0, None)?;
        self.ensure_room(0, 4)?;
        self.rank_memo = None;
        let after_chain = self.map.get(last.0).and_then(|e| e.next);
        // Unlink from src.
        self.commit(match src_pred {
            None => Record::ListHead {
                lid: src.0,
                first: after_chain,
            },
            Some(p) => Record::Link {
                bid: p,
                next: after_chain,
            },
        });
        // Link into dst.
        let next = match dst_pred {
            Pred::Start => {
                let old_head = self.lists.get(dst.0).and_then(|l| l.first);
                self.commit(Record::ListHead {
                    lid: dst.0,
                    first: Some(first.0),
                });
                old_head
            }
            Pred::After(p) => {
                let old_next = self.map.get(p.0).and_then(|e| e.next);
                self.commit(Record::Link {
                    bid: p.0,
                    next: Some(first.0),
                });
                old_next
            }
        };
        self.commit(Record::Link { bid: last.0, next });
        // Ownership is not logged: recovery derives it by walking lists.
        for c in &chain {
            if let Some(e) = self.map.get_mut(*c) {
                e.list = dst.0;
            }
        }
        self.charge_cpu(2 * self.list_cpu() + chain.len() as u64 * self.walk_cpu());
        Ok(())
    }

    fn move_list(&mut self, lid: Lid, pred: PredList) -> Result<()> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        if self.lists.get(lid.0).is_none() {
            return Err(LdError::UnknownList(lid));
        }
        let pred_raw = match pred {
            PredList::Start => None,
            // A list cannot follow itself.
            PredList::After(p) if p == lid || self.lists.get(p.0).is_none() => {
                return Err(LdError::UnknownList(p));
            }
            PredList::After(p) => Some(p.0),
        };
        self.ensure_room(0, 1)?;
        self.rank_memo = None;
        self.commit(Record::ListOrder {
            lid: lid.0,
            pred: pred_raw,
        });
        Ok(())
    }

    fn swap_contents(&mut self, a: Bid, b: Bid) -> Result<()> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        let ea = *self.map.get(a.0).ok_or(LdError::UnknownBlock(a))?;
        let eb = *self.map.get(b.0).ok_or(LdError::UnknownBlock(b))?;
        if ea.logical_len > eb.size_class {
            return Err(LdError::BlockTooLarge {
                got: ea.logical_len as usize,
                max: eb.size_class as usize,
            });
        }
        if eb.logical_len > ea.size_class {
            return Err(LdError::BlockTooLarge {
                got: eb.logical_len as usize,
                max: ea.size_class as usize,
            });
        }
        if a == b {
            return Ok(());
        }
        // The seal inside ensure_room may re-point open-segment copies;
        // the swap reads both entries as they are after it.
        self.ensure_room(0, 2)?;
        let ea = *self.map.get(a.0).ok_or(LdError::UnknownBlock(a))?;
        let eb = *self.map.get(b.0).ok_or(LdError::UnknownBlock(b))?;
        // Each block logs where its new copy lies, so no record depends on
        // another. Per-segment live bytes are unchanged (both copies stay
        // live where they are); a later seal re-points a block whose copy
        // is now in the buffer.
        for (bid, copy) in [(a.0, eb), (b.0, ea)] {
            if copy.seg == OPEN_SEG {
                self.open_bids.push(bid);
            }
            self.commit(copy.location(bid));
        }
        Ok(())
    }

    fn block_at(&mut self, lid: Lid, index: u64) -> Result<Bid> {
        self.check_up()?;
        self.charge_cpu(self.config.cpu.per_command_us);
        if self.lists.get(lid.0).is_none() {
            return Err(LdError::UnknownList(lid));
        }
        let mut cur = self.lists.get(lid.0).expect("verified").first; // PANIC-OK: presence checked at the top of the function
        let mut steps = 0u64;
        let limit = self.map.allocated() as u64 + 1;
        while let Some(bid) = cur {
            if steps == index {
                self.charge_cpu(steps * self.walk_cpu());
                return Ok(Bid(bid));
            }
            steps += 1;
            if steps > limit {
                break;
            }
            cur = self.map.get(bid).and_then(|e| e.next);
        }
        self.charge_cpu(steps * self.walk_cpu());
        Err(LdError::IndexOutOfRange { lid, index })
    }

    fn list_blocks(&mut self, lid: Lid) -> Result<Vec<Bid>> {
        self.check_up()?;
        if self.lists.get(lid.0).is_none() {
            return Err(LdError::UnknownList(lid));
        }
        Ok(self.walk_list(lid.0).into_iter().map(Bid).collect())
    }

    fn block_len(&mut self, bid: Bid) -> Result<usize> {
        self.check_up()?;
        Ok(self
            .map
            .get(bid.0)
            .ok_or(LdError::UnknownBlock(bid))?
            .logical_len as usize)
    }

    fn shutdown(&mut self) -> Result<()> {
        self.check_up()?;
        // Open ARUs at shutdown are closed; their operations commit.
        for id in self.open_arus.clone() {
            self.end_aru_id(AruId(id))?;
        }
        self.seal()?;
        self.drain_queue()?;
        checkpoint::write_checkpoint(self)?;
        self.shut_down = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests;
