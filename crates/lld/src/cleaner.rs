//! Segment cleaning, clustering, and the disk reorganizer (paper §3.5).
//!
//! The cleaner reclaims segments by copying their live blocks into the
//! segment being filled. Two victim-selection policies from Rosenblum &
//! Ousterhout are implemented (the paper notes "all of these can be used
//! for LLD as well"). While copying, blocks are reordered by their position
//! in their lists — the paper's "simplistic clustering strategy" that
//! "uses the list information to reorder the blocks to improve sequential
//! read performance".
//!
//! Cleaning a segment also rewrites the *live* metadata records from its
//! summary into the current segment and drops the dead ones — the paper's
//! "LLD also removes old logging information, such as old link tuples and
//! old EndARU tuples, from the segment summaries during cleaning". Without
//! this, freeing a segment could discard the only surviving record of a
//! link or an allocation and recovery would reconstruct a stale state.
//!
//! Every block that moves — forwarded by the cleaner, clustered by the
//! reorganizers, or evacuated by scrub — goes through one relocation path:
//! `read_copy` fetches the on-disk copy with the retry budget and `forward`
//! appends it to the open segment, logs its new location and re-points the
//! block. The callers differ only in where the bytes come from (the
//! cleaner reads each victim once, from the sector holding its first live
//! byte through its summary) and in what an unreadable copy means to them:
//! the cleaner quarantines the victim, scrub reports the block, and the
//! reorganizers leave it in place. All of them run under one re-entrancy
//! guard, `guarded`.

use std::collections::{BTreeMap, BTreeSet};

use ld_core::Result;
use simdisk::BlockDev;

use crate::block_map::{BlockEntry, RankMemo, OPEN_SEG};
use crate::records::Record;
use crate::usage::SegState;
use crate::Lld;

/// Victim-selection policy for the cleaner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CleaningPolicy {
    /// Clean the segment with the fewest live bytes.
    Greedy,
    /// Sprite LFS cost-benefit: maximize `(1 - u) · age / (1 + u)`.
    #[default]
    CostBenefit,
}

impl<D: BlockDev> Lld<D> {
    /// Runs the cleaner until the free pool is back above the configured
    /// reserve (or no cleanable segment remains). Called automatically when
    /// a seal drains the pool; also available for explicit idle-time use,
    /// and between the reorganizers' chunks.
    pub(crate) fn clean_to_reserve(&mut self) -> Result<()> {
        self.cleaner_pass(|lld| {
            lld.stats.cleaner_runs += 1;
            let reserve = lld.config.cleaning_reserve_segments;
            // One victim at a time on the direct path and at depth 1;
            // `queue_depth` victims when the queue can prefetch them in
            // one scheduler pass.
            let batch = lld.config.queue_depth.max(1) as usize;
            lld.clean_victims(batch, |lld, _| lld.usage.free_count() <= reserve)?;
            // Nothing cleanable beyond what is already pending, or the
            // reserve is back (then this is a no-op).
            lld.drain_pending_if_starved()
        })
    }

    /// Explicitly cleans up to `max_segments` segments (idle-time cleaning,
    /// paper §3: "If LLD runs out of empty segments while busy, it will
    /// call the segment cleaner"; the reorganizer calls this during idle
    /// periods). Returns how many segments were reclaimed.
    pub fn clean(&mut self, max_segments: u32) -> Result<u32> {
        self.check_up()?;
        self.cleaner_pass(|lld| lld.clean_victims(1, |_, cleaned| cleaned < max_segments))
    }

    /// [`Self::guarded`], traced as one `CleanerPass` event.
    fn cleaner_pass<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let cleaned0 = self.stats.segments_cleaned;
        let copied0 = self.stats.cleaner_bytes_copied;
        let result = self.guarded(f);
        self.disk.trace(ld_trace::Event::CleanerPass {
            reclaimed: self.stats.segments_cleaned - cleaned0,
            bytes_copied: self.stats.cleaner_bytes_copied - copied0,
        });
        result
    }

    /// Runs `f` with the cleaner's re-entrancy guard up: seals inside it
    /// must not start the cleaner (it may be the cleaner, or a relocation
    /// that foreign forwarded blocks would interleave with). Guards nest;
    /// the outer state comes back afterwards, error or not.
    fn guarded<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        let outer = std::mem::replace(&mut self.cleaning, true);
        let result = f(self);
        self.cleaning = outer;
        result
    }

    /// The victim loop: while `more(self, cleaned so far)` holds, picks up
    /// to `n` victims and cleans them — prefetched through the command
    /// queue when `n > 1` — then releases reclaimed segments if the pool
    /// starves. Stops when nothing is cleanable; returns how many victims
    /// were cleaned.
    fn clean_victims(&mut self, n: usize, more: impl Fn(&Self, u32) -> bool) -> Result<u32> {
        let mut cleaned = 0;
        while more(self, cleaned) {
            let victims = self.usage.pick_victims(
                self.config.cleaning_policy,
                self.layout.data_bytes as u64,
                self.ts,
                n,
            );
            if victims.is_empty() {
                break;
            }
            self.clean_batch(&victims, n > 1)?;
            cleaned += victims.len() as u32;
            self.drain_pending_if_starved()?;
        }
        Ok(cleaned)
    }

    /// Cleans a batch of victims, reading each one once: the span from the
    /// sector holding its first live byte through the end of its summary
    /// ([`Self::span_start`]). With `prefetch`, the spans are read as one
    /// queued request each, which the scheduler orders by position instead
    /// of by cost-benefit rank. A victim without a prefetched span (no
    /// prefetch, or its read failed) reads it with the retry budget just
    /// before it is cleaned; if that fails too, [`Self::clean_segment`]
    /// takes its one fallback.
    fn clean_batch(&mut self, victims: &[u32], prefetch: bool) -> Result<()> {
        let lives = self.map.live_blocks_in(victims);
        let starts: Vec<u64> = lives.iter().map(|live| self.span_start(live)).collect();
        let images = if prefetch {
            self.prefetch_spans(victims, &starts)?
        } else {
            vec![None; victims.len()]
        };
        let batch = victims.iter().zip(lives).zip(starts).zip(images);
        for (((&victim, live), start), image) in batch {
            let span = match image {
                Some(img) => Some(img),
                None => self.read_span(victim, start)?,
            };
            self.clean_segment(victim, live, start, span.as_deref())?;
        }
        Ok(())
    }

    /// The first sector (counted from the segment's base) of a victim's
    /// span: the one holding the first byte of any of its `live` blocks.
    /// Zero-length blocks store nothing and do not count; with no live
    /// byte the span is the summary alone. The bytes before it are never
    /// used. The dead bytes after it are read anyway: one request costs
    /// one positioning, and a drive reads the sectors under the head at
    /// bus speed.
    fn span_start(&self, live: &[u64]) -> u64 {
        let first = (live.iter())
            .filter_map(|&bid| self.map.get(bid))
            .filter(|e| e.stored_len > 0)
            .map(|e| e.offset as usize)
            .min()
            .unwrap_or(self.layout.data_bytes);
        (first / simdisk::SECTOR_SIZE) as u64
    }

    /// Reads `victim`'s span from sector `start` with the retry budget;
    /// `None` when it stayed unreadable.
    fn read_span(&mut self, victim: u32, start: u64) -> Result<Option<Vec<u8>>> {
        let count = self.layout.segment_sectors - start;
        let mut buf = vec![0u8; count as usize * simdisk::SECTOR_SIZE];
        self.stats.cleaner_sectors_read += count;
        let failed = self.read_span_retrying(self.layout.segment_base(victim) + start, &mut buf)?;
        Ok(failed.is_none().then_some(buf))
    }

    /// Submits one span read per victim (from its sector in `starts`) to
    /// the command queue and dispatches until all complete. Returns the
    /// spans in victim order; a `None` means that read failed on a media
    /// fault (single attempt — the caller re-reads with the retry budget)
    /// or that there is no queue to prefetch through. Write completions
    /// drained along the way propagate their errors.
    fn prefetch_spans(&mut self, victims: &[u32], starts: &[u64]) -> Result<Vec<Option<Vec<u8>>>> {
        let mut images: Vec<Option<Vec<u8>>> = vec![None; victims.len()];
        let Some(q) = self.queue.as_mut() else {
            return Ok(images);
        };
        let mut tags = Vec::with_capacity(victims.len());
        for (&v, &start) in victims.iter().zip(starts) {
            let count = self.layout.segment_sectors - start;
            tags.push(q.submit_read(&self.disk, self.layout.segment_base(v) + start, count));
            self.stats.cleaner_sectors_read += count;
        }
        self.stats.queued_reads += victims.len() as u64;
        while !q.is_empty() {
            let Some(c) = q.dispatch_one(&mut self.disk) else {
                break;
            };
            match c.result {
                Ok(Some(buf)) => {
                    if let Some(i) = tags.iter().position(|&t| t == c.tag) {
                        images[i] = Some(buf);
                    }
                }
                Ok(None) => {} // An in-flight seal landed on the way.
                Err(simdisk::DiskError::Unreadable { .. }) if !c.write => {
                    // Leave the image absent; the caller re-reads with the
                    // retry budget, and the fallback owns quarantine.
                }
                Err(e) => {
                    q.abandon();
                    return Err(crate::dev(e));
                }
            }
        }
        Ok(images)
    }

    /// Reclaimed victims wait in `pending_free` until their forwarded
    /// copies (sitting in the open segment buffer) are durable. Cleaning
    /// mostly-empty victims forwards so little data that no seal happens,
    /// and the pool can starve with plenty of reclaimed-but-unreleased
    /// segments. A partial write (§3.2 machinery) makes the open buffer
    /// durable and releases them.
    fn drain_pending_if_starved(&mut self) -> Result<()> {
        if !self.pending_free.is_empty()
            && self.usage.free_count() <= self.config.cleaning_reserve_segments
        {
            self.partial_flush()?;
        }
        Ok(())
    }

    /// Moves one live block into the open segment: appends `bytes` (the
    /// stored copy `old` describes), logs the new location and re-points
    /// the block. Returns `false`, moving nothing, when the block no longer
    /// lives at `old` — the seal that made room may have run the cleaner,
    /// which can have forwarded it already. The one relocation path of the
    /// cleaner, both reorganizers and scrub; each counts its own moves.
    fn forward(&mut self, bid: u64, old: BlockEntry, bytes: &[u8]) -> Result<bool> {
        self.ensure_room(bytes.len(), 1)?;
        let still_there = self
            .map
            .get(bid)
            .is_some_and(|cur| cur.seg == old.seg && cur.offset == old.offset);
        if !still_there {
            return Ok(false);
        }
        let offset = self.open.append_data(bytes);
        let moved = BlockEntry {
            seg: OPEN_SEG,
            offset,
            ..old
        };
        self.commit_internal(moved.location(bid));
        self.usage.sub_live(old.seg, u64::from(old.stored_len));
        self.open_live += u64::from(old.stored_len);
        self.open_bids.push(bid);
        Ok(true)
    }

    /// Takes each of `segs` out of circulation for good, durably: the
    /// `Quarantine` record carries the state through a recovery sweep.
    /// The sweep rebuilds every table from the summaries, so when a
    /// segment's summary is lost (the flag beside it: unreadable, or
    /// holding a confirmed-bad sector) it must not stay the only copy of
    /// any live record. What it held cannot be read, so the whole state is
    /// re-logged once for the batch: every list and block id below the
    /// high-water marks (live or deleted), where each live block's copy
    /// lies unless it is in the open segment (a lost swap's `Locate`s can
    /// have been the newest word on it), the bad-sector table and the
    /// quarantined segments. The one retirement path of the cleaner and
    /// scrub.
    fn retire_segments(&mut self, segs: &[(u32, bool)]) -> Result<()> {
        for &(seg, _) in segs {
            self.ensure_room(0, 1)?;
            self.log_internal(Record::Quarantine { seg });
            self.usage.quarantine(seg);
        }
        if !segs.iter().any(|&(_, lost)| lost) {
            return Ok(());
        }
        let mut logged = 0;
        // Live lists first, in order, so each names a predecessor placed
        // before it; then the deleted ids.
        let mut lids = self.lists.order();
        lids.extend((0..self.lists.capacity_slots()).filter(|&l| self.lists.get(l).is_none()));
        for lid in lids {
            logged += self.relog_list(lid)?;
        }
        for bid in 0..self.map.capacity_slots() as u64 {
            logged += self.relog_block(bid)? + self.relog_location(bid)?;
        }
        let mut health: Vec<Record> = (self.bad_sectors.iter())
            .map(|&sector| Record::RetireSector { sector })
            .collect();
        health.extend(
            (self.usage.iter())
                .filter(|&(seg, u)| {
                    u.state == SegState::Quarantined && !segs.iter().any(|s| s.0 == seg)
                })
                .map(|(seg, _)| Record::Quarantine { seg }),
        );
        for rec in health {
            self.ensure_room(0, 1)?;
            self.log_internal(rec);
            logged += 1;
        }
        self.stats.retire_records_relogged += logged;
        Ok(())
    }

    /// Logs where live block `bid`'s copy lies, as a [`Record::Locate`]
    /// (the no-copy form if it has none), unless it is in the open segment,
    /// whose summary already says so. Returns the records logged.
    fn relog_location(&mut self, bid: u64) -> Result<u64> {
        self.ensure_room(0, 1)?;
        let Some(&e) = self.map.get(bid).filter(|e| e.seg != OPEN_SEG) else {
            return Ok(0);
        };
        self.log_internal(e.location(bid));
        Ok(1)
    }

    /// Logs the current state of block `bid`: `NewBlock` and `Link` while
    /// it lives, else `DeleteBlock`. Returns the records logged.
    fn relog_block(&mut self, bid: u64) -> Result<u64> {
        self.ensure_room(0, 2)?;
        let Some(e) = self.map.get(bid) else {
            self.log_internal(Record::DeleteBlock { bid });
            return Ok(1);
        };
        let (lid, size_class, next) = (e.list, e.size_class, e.next);
        self.log_internal(Record::NewBlock {
            bid,
            lid,
            size_class,
        });
        self.log_internal(Record::Link { bid, next });
        Ok(2)
    }

    /// Logs the current state of list `lid`: `NewList` (with its place in
    /// the list of lists) and `ListHead` while it lives, else
    /// `DeleteList`. Returns the records logged.
    fn relog_list(&mut self, lid: u64) -> Result<u64> {
        self.ensure_room(0, 2)?;
        let Some(e) = self.lists.get(lid) else {
            self.log_internal(Record::DeleteList { lid });
            return Ok(1);
        };
        let (first, hints) = (e.first, e.hints);
        let pred = self.lists.order_pred(lid);
        self.log_internal(Record::NewList { lid, pred, hints });
        self.log_internal(Record::ListHead { lid, first });
        Ok(2)
    }

    /// Cleans one victim segment: forwards its live blocks (in list order)
    /// and re-logs its live metadata records, then queues the segment for
    /// release once the forwarded copies are durable. `live` holds the
    /// victim's live blocks (ascending, gathered from the block map at any
    /// point since the victim was picked); `span` is the victim as read
    /// from sector `start` through the end of its summary (as laid out on
    /// disk), with which it is cleaned without touching the medium again.
    /// Without a span (its read stayed unreadable) the one fallback runs:
    /// the summary alone with the retry budget, then each live block.
    fn clean_segment(
        &mut self,
        victim: u32,
        mut live: Vec<u64>,
        start: u64,
        span: Option<&[u8]>,
    ) -> Result<()> {
        debug_assert_eq!(self.usage.get(victim).state, SegState::Live);

        // Live blocks come from the block-number map (authoritative); the
        // summary is only needed to know which entities' metadata records
        // must be re-logged before the summary is discarded. None has left
        // since `live` was gathered: an earlier victim of the batch moves
        // only its own blocks, and its seals run under `guarded`, so no
        // nested cleaning can. None can arrive either: only seals fill
        // segments, and they fill free ones.
        debug_assert!(live
            .iter()
            .all(|&bid| self.map.get(bid).is_some_and(|e| e.seg == victim)));

        // Sorted and deduplicated below: nearly every record names a block,
        // and one sort is cheaper than a set insert per record.
        let mut mentioned_bids: Vec<u64> = Vec::new();
        let mut mentioned_lids: BTreeSet<u64> = BTreeSet::new();
        let mut mentioned_sectors: BTreeSet<u64> = BTreeSet::new();
        let mut mentioned_quarantines: BTreeSet<u32> = BTreeSet::new();
        let mut located: BTreeSet<(u64, u32, u32)> = BTreeSet::new();
        let summary = {
            let mut buf = Vec::new();
            let bytes = match span {
                Some(span) => &span[span.len() - self.layout.summary_bytes..],
                None => {
                    buf.resize(self.layout.summary_bytes, 0);
                    self.stats.cleaner_sectors_read += self.layout.summary_sectors();
                    if self
                        .read_span_retrying(self.layout.summary_base(victim), &mut buf)?
                        .is_some()
                    {
                        // Without the summary the segment's dead records
                        // cannot be told from its live ones, so it cannot be
                        // reclaimed. Retire it instead; its live blocks stay
                        // for a later scrub to evacuate.
                        return self.retire_segments(&[(victim, true)]);
                    }
                    &buf[..]
                }
            };
            crate::records::decode_summary(bytes)
        };
        if let Some(summary) = summary {
            for s in &summary.records {
                match s.rec {
                    Record::NewBlock { bid, .. }
                    | Record::DeleteBlock { bid }
                    | Record::Link { bid, .. }
                    | Record::WriteBlock { bid, .. } => {
                        mentioned_bids.push(bid);
                    }
                    Record::ListHead { lid, .. }
                    | Record::NewList { lid, .. }
                    | Record::DeleteList { lid }
                    | Record::ListOrder { lid, .. } => {
                        mentioned_lids.insert(lid);
                    }
                    Record::EndAru => {}
                    Record::RetireSector { sector } => {
                        mentioned_sectors.insert(sector);
                    }
                    Record::Quarantine { seg } => {
                        mentioned_quarantines.insert(seg);
                    }
                    Record::Locate {
                        bid, seg, offset, ..
                    } => {
                        mentioned_bids.push(bid);
                        located.insert((bid, seg, offset));
                    }
                }
            }
        }

        mentioned_bids.sort_unstable();
        mentioned_bids.dedup();

        // Cluster: order the live blocks by their position in their lists
        // (interfile order = list-of-lists order, intrafile = list order).
        self.order_by_lists(&mut live);

        // Forward live blocks out of the span, whose first byte is data
        // offset `skip`. In the fallback each is read on its own, so one
        // bad sector costs one block, not every live block in the segment.
        let skip = start as usize * simdisk::SECTOR_SIZE;
        let mut unreadable_live = false;
        for bid in live {
            let Some(e) = self.map.get(bid).copied() else {
                continue;
            };
            if e.seg != victim {
                // A seal during this loop cannot move it, but be safe.
                continue;
            }
            let (at, len) = (e.offset as usize, e.stored_len as usize);
            let copy;
            let bytes = match span {
                // A zero-length block stores nothing, maybe before `skip`.
                _ if len == 0 => &[][..],
                Some(span) => &span[at - skip..at - skip + len],
                None => match self.cleaner_read_copy(&e)? {
                    Some(b) => {
                        copy = b;
                        &copy[..]
                    }
                    None => {
                        unreadable_live = true;
                        continue;
                    }
                },
            };
            if self.forward(bid, e, bytes)? {
                self.stats.cleaner_bytes_copied += u64::from(e.stored_len);
            }
        }

        if unreadable_live {
            // Some live copy stayed unreadable after retries. Blocks
            // already forwarded are safe (their new records outrank the
            // old ones at replay); everything else — including the
            // summary, which may hold the only record of the stranded
            // blocks — must stay on the medium, so the segment is
            // retired rather than freed. A later scrub accounts for the
            // damage and retires the failing sectors.
            return self.retire_segments(&[(victim, false)]);
        }

        // Re-log live metadata; drop dead records ("removes old logging
        // information"). One decision per entity.
        for bid in mentioned_bids {
            self.stats.cleaner_records_relogged += self.relog_block(bid)?;
        }
        // A `Locate` is current while its block still lies where it says
        // (or still has no copy); any later move logged a newer record.
        for (bid, seg, offset) in located {
            if (self.map.get(bid)).is_some_and(|e| e.seg == seg && e.offset == offset) {
                self.stats.cleaner_records_relogged += self.relog_location(bid)?;
            }
        }
        for lid in mentioned_lids {
            self.stats.cleaner_records_relogged += self.relog_list(lid)?;
        }
        // Medium-health facts are monotone (a retired sector never comes
        // back), so any mentioned here is still current — re-log it before
        // this summary, possibly its only copy, is discarded.
        for sector in mentioned_sectors {
            if self.bad_sectors.contains(&sector) {
                self.ensure_room(0, 1)?;
                self.log_internal(Record::RetireSector { sector });
                self.stats.cleaner_records_relogged += 1;
            }
        }
        for seg in mentioned_quarantines {
            if self.usage.get(seg).state == SegState::Quarantined {
                self.ensure_room(0, 1)?;
                self.log_internal(Record::Quarantine { seg });
                self.stats.cleaner_records_relogged += 1;
            }
        }

        // The forwarded copies live in the open buffer; the victim may only
        // be overwritten after they are durable.
        self.pending_free.push(victim);
        // Take the victim out of the victim pool immediately.
        self.usage.set(
            victim,
            crate::usage::SegUsage {
                state: SegState::Scratch,
                live_bytes: 0,
                last_write_ts: 0,
            },
        );
        self.stats.segments_cleaned += 1;
        Ok(())
    }

    /// [`Self::read_copy`] on the cleaner's behalf, counted in
    /// `cleaner_sectors_read`.
    fn cleaner_read_copy(&mut self, e: &BlockEntry) -> Result<Option<Vec<u8>>> {
        let (_, count) =
            self.layout
                .data_sector_span(e.seg, e.offset as usize, e.stored_len as usize);
        self.stats.cleaner_sectors_read += count;
        self.read_copy(e)
    }

    /// Orders block ids by (list-of-lists position, position within list);
    /// blocks not reachable from any list keep their relative order at the
    /// end. The ranks come from `rank_memo`, which walks each list at most
    /// once until the list structure changes; debug builds re-derive the
    /// order by walking and assert that the two agree.
    fn order_by_lists(&mut self, bids: &mut [u64]) {
        let walked = cfg!(debug_assertions).then(|| {
            let mut v = bids.to_vec();
            self.order_by_walk(&mut v);
            v
        });
        let memo = self
            .rank_memo
            .get_or_insert_with(|| RankMemo::new(&self.map, &self.lists));
        bids.sort_by_key(|&b| memo.rank(&self.map, &self.lists, b));
        if let Some(walked) = walked {
            assert_eq!(bids, &walked[..], "rank memo disagrees with the list walk");
        }
    }

    /// [`Self::order_by_lists`] from scratch: walks every involved list
    /// from its head.
    fn order_by_walk(&self, bids: &mut [u64]) {
        let involved: BTreeSet<u64> = bids
            .iter()
            .filter_map(|&b| self.map.get(b).map(|e| e.list))
            .collect();
        // Rank only the blocks being sorted: an involved list can be far
        // longer than one segment's worth of them.
        let wanted: BTreeSet<u64> = bids.iter().copied().collect();
        let order = self.lists.order();
        let mut rank: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
        for (li, lid) in order.iter().enumerate() {
            if !involved.contains(lid) {
                continue;
            }
            for (bi, bid) in self.walk_list(*lid).into_iter().enumerate() {
                if wanted.contains(&bid) {
                    rank.insert(bid, (li, bi));
                }
            }
        }
        bids.sort_by_key(|b| rank.get(b).copied().unwrap_or((usize::MAX, usize::MAX)));
    }

    /// Idle-period disk reorganizer (paper §3: "During idle periods the
    /// reorganizer will try to improve the layout of blocks and lists on
    /// disk and to clean segments").
    ///
    /// Rewrites up to `max_lists` of the most fragmented lists in list
    /// order (physically clustering them) and then cleans up to
    /// `max_segments` low-utilization segments. Returns
    /// `(lists_rewritten, segments_cleaned)`.
    pub fn reorganize(&mut self, max_lists: u32, max_segments: u32) -> Result<(u32, u32)> {
        self.check_up()?;
        // Score lists by fragmentation: number of segment changes while
        // walking the list (0 = perfectly clustered).
        let mut scored: Vec<(u64, u64)> = Vec::new();
        for (lid, _) in self.lists.iter() {
            let blocks = self.walk_list(lid);
            if blocks.len() < 2 {
                continue;
            }
            let mut breaks = 0u64;
            let mut prev_seg: Option<u32> = None;
            for b in &blocks {
                let seg = self.map.get(*b).map(|e| e.seg);
                if let (Some(p), Some(s)) = (prev_seg, seg) {
                    if p != s {
                        breaks += 1;
                    }
                }
                prev_seg = seg;
            }
            if breaks > 0 {
                scored.push((breaks, lid));
            }
        }
        scored.sort_unstable_by(|a, b| b.cmp(a));

        let rewritten = self.guarded(|lld| {
            let mut rewritten = 0u32;
            for (_, lid) in scored.into_iter().take(max_lists as usize) {
                if lld.usage.free_count() <= lld.config.cleaning_reserve_segments {
                    lld.clean_to_reserve()?;
                }
                // Walking the list in order clusters it physically.
                let blocks = lld.walk_list(lid);
                lld.relocate_in_chunks(blocks)?;
                lld.stats.reorganized_lists += 1;
                rewritten += 1;
            }
            Ok(rewritten)
        })?;
        let cleaned = self.clean(max_segments)?;
        Ok((rewritten, cleaned))
    }

    /// Adaptive block rearrangement (§5.3, after Akyürek & Salem): collects
    /// the most frequently accessed blocks into a contiguous run of
    /// segments, so the head stays in a small hot region instead of
    /// sweeping the whole disk. Access frequencies are "acquired by
    /// monitoring the stream of disk accesses" — LLD counts every block
    /// read and write — and halved afterwards so the estimate adapts.
    ///
    /// Returns the number of blocks moved.
    pub fn reorganize_hot(&mut self, max_blocks: usize) -> Result<u32> {
        self.check_up()?;
        // Rank live on-disk blocks by heat.
        let mut hot: Vec<(u32, u64)> = self
            .map
            .iter()
            .filter(|(_, e)| e.on_disk())
            .map(|(bid, _)| {
                let h = self.heat.get(bid as usize).copied().unwrap_or(0);
                (h, bid)
            })
            .filter(|(h, _)| *h > 0)
            .collect();
        hot.sort_unstable_by(|a, b| b.cmp(a));
        hot.truncate(max_blocks);
        let mut bids: Vec<u64> = hot.into_iter().map(|(_, bid)| bid).collect();
        // Keep list order within the hot set so sequential runs survive.
        self.order_by_lists(&mut bids);

        let result = self.guarded(|lld| {
            // Start on a fresh segment so the hot region is contiguous.
            lld.seal()?;
            let moved = lld.relocate_in_chunks(bids)?;
            lld.seal()?;
            Ok(moved)
        });
        // Age the estimates.
        for h in &mut self.heat {
            *h /= 2;
        }
        let moved = result?;
        // The seals above could not clean; refill the reserve now, or
        // repeated calls drain the free pool until a user seal finds none.
        if self.usage.free_count() <= self.config.cleaning_reserve_segments {
            self.clean_to_reserve()?;
        }
        Ok(moved)
    }

    /// Streams `bids`, in the order given, into the open segment — the
    /// reorganizers' loop, run under the cleaning guard. Cleaning is
    /// deferred while a chunk streams out (the cleaner would interleave
    /// forwarded foreign blocks and fragment the very run being laid
    /// down), but runs between chunks so long runs cannot starve the free
    /// pool. Blocks already in memory stay put (clustered by definition),
    /// and so do unreadable ones, which scrub handles. Returns how many
    /// blocks moved.
    fn relocate_in_chunks(&mut self, bids: Vec<u64>) -> Result<u32> {
        let chunk_bytes = self
            .config
            .cleaning_reserve_segments
            .saturating_sub(2)
            .max(1) as usize
            * self.layout.data_bytes;
        let mut streamed = 0usize;
        let mut moved = 0u32;
        for bid in bids {
            if streamed >= chunk_bytes {
                streamed = 0;
                if self.usage.free_count() <= self.config.cleaning_reserve_segments {
                    self.clean_to_reserve()?;
                }
            }
            let Some(e) = self.map.get(bid).copied() else {
                continue;
            };
            if !e.on_disk() {
                continue;
            }
            let Some(bytes) = self.read_copy(&e)? else {
                continue;
            };
            if self.forward(bid, e, &bytes)? {
                streamed += e.stored_len as usize;
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Proactive media scan: reads every segment region — data and summary
    /// alike — so failing sectors are discovered *before* a client read
    /// trips over them, then runs [`Self::scrub`] over whatever the scan
    /// (and any earlier read failures) recorded as suspect. Each segment is
    /// read whole first; only segments that stay unreadable after the
    /// retry budget are probed sector by sector to pin down the exact bad
    /// sectors. The checkpoint header region is not scanned — recovery
    /// already tolerates it failing ([`crate::checkpoint::try_load`]).
    ///
    /// Returns what the final scrub pass returns.
    pub fn media_scan(&mut self) -> Result<(u64, u64, u64)> {
        self.check_up()?;
        let mut region = vec![0u8; self.layout.segment_bytes];
        let mut probe = vec![0u8; simdisk::SECTOR_SIZE];
        for seg in 0..self.layout.segments {
            let base = self.layout.segment_base(seg);
            if self.read_span_retrying(base, &mut region)?.is_none() {
                continue;
            }
            // Something in this segment is persistently failing; locate
            // every bad sector (each failed probe records a suspect).
            for s in base..base + self.layout.segment_sectors {
                let _ = self.read_span_retrying(s, &mut probe)?;
            }
        }
        self.scrub()
    }

    /// Scrub/relocate pass over failing media.
    ///
    /// Probes every suspect sector recorded by earlier read failures —
    /// transient faults have recovered and drop out; persistent faults are
    /// confirmed bad. Segments owning a confirmed-bad sector (plus any
    /// segment already quarantined by the cleaner) have their live blocks
    /// relocated into the open segment through the relocation path the
    /// cleaner and the reorganizers use, then are retired from circulation. Confirmed sectors no
    /// longer under any live block join the persistent bad-block remap
    /// table (durable from the next checkpoint) and are traced as
    /// `SectorRemap` events; a sector still covered by a live block that
    /// stayed unreadable remains suspect so the loss stays visible.
    ///
    /// Returns `(relocated, remapped, unreadable)`: live blocks moved off
    /// failing segments, sectors retired into the remap table, and live
    /// blocks that remained unreadable after all retries. Relocated copies
    /// sit in the open segment buffer until the next flush or seal makes
    /// them durable.
    pub fn scrub(&mut self) -> Result<(u64, u64, u64)> {
        self.check_up()?;
        // Probe suspects one sector at a time with the usual retry budget.
        let suspects: Vec<u64> = std::mem::take(&mut self.suspect_sectors)
            .into_iter()
            .filter(|s| !self.bad_sectors.contains(s))
            .collect();
        let mut confirmed: BTreeSet<u64> = BTreeSet::new();
        let mut probe = vec![0u8; simdisk::SECTOR_SIZE];
        for s in suspects {
            // A failed probe re-inserts `s` into the suspect set; it is
            // removed again below if the sector gets remapped.
            if self.read_span_retrying(s, &mut probe)?.is_some() {
                confirmed.insert(s);
            }
        }

        let mut targets: BTreeSet<u32> = confirmed
            .iter()
            .filter_map(|&s| self.layout.segment_of_sector(s))
            .collect();
        targets.extend(
            self.usage
                .iter()
                .filter(|(_, u)| u.state == SegState::Quarantined)
                .map(|(seg, _)| seg),
        );

        // Evacuate live blocks off every target segment, per block so one
        // bad sector costs one block.
        let mut relocated = 0u64;
        let mut unreadable = 0u64;
        let segs: Vec<u32> = targets.iter().copied().collect();
        self.guarded(|lld| {
            let mut lives = lld.map.live_blocks_in(&segs);
            let mut sealed = lld.stats.segments_sealed;
            for (i, &seg) in segs.iter().enumerate() {
                if lld.stats.segments_sealed != sealed {
                    // A seal can fill a later target (a free segment with a
                    // confirmed-bad sector); gather again so those blocks
                    // move too.
                    lives = lld.map.live_blocks_in(&segs);
                    sealed = lld.stats.segments_sealed;
                }
                for bid in std::mem::take(&mut lives[i]) {
                    let Some(e) = lld.map.get(bid).copied() else {
                        continue;
                    };
                    // A zero-length block has nothing stored on the medium.
                    if e.seg != seg || e.stored_len == 0 {
                        continue;
                    }
                    let Some(bytes) = lld.read_copy(&e)? else {
                        unreadable += 1;
                        lld.stats.unreadable_blocks += 1;
                        continue;
                    };
                    if lld.forward(bid, e, &bytes)? {
                        relocated += 1;
                    }
                }
            }
            Ok(())
        })?;

        // Retire the targets. Their summaries stay on the medium (a
        // recovery sweep may still need them); the checkpoint carries the
        // quarantined state across clean restarts, and a `Quarantine`
        // record in the metadata log carries it through a recovery sweep.
        let retiring: Vec<(u32, bool)> = targets
            .iter()
            .filter(|&&seg| self.usage.get(seg).state != SegState::Quarantined)
            .map(|&seg| {
                let summary = self.layout.summary_base(seg);
                let end = summary + self.layout.summary_sectors();
                (seg, confirmed.range(summary..end).next().is_some())
            })
            .collect();
        self.retire_segments(&retiring)?;

        // Sectors still covered by a live block could not be evacuated;
        // keep them suspect instead of declaring them remapped.
        let mut covered: BTreeSet<u64> = BTreeSet::new();
        for (_, e) in self.map.iter() {
            if e.on_disk() && e.stored_len > 0 && targets.contains(&e.seg) {
                let (start, count) =
                    self.layout
                        .data_sector_span(e.seg, e.offset as usize, e.stored_len as usize);
                covered.extend(start..start + count);
            }
        }
        let mut remapped = 0u64;
        for s in confirmed {
            if covered.contains(&s) {
                continue;
            }
            if !self.bad_sectors.contains(&s) {
                self.ensure_room(0, 1)?;
                self.bad_sectors.insert(s);
                self.log_internal(Record::RetireSector { sector: s });
                remapped += 1;
                self.stats.remapped_sectors += 1;
                self.disk.trace(ld_trace::Event::SectorRemap { sector: s });
            }
            self.suspect_sectors.remove(&s);
        }
        self.disk.trace(ld_trace::Event::ScrubPass {
            relocated,
            remapped,
            unreadable,
        });
        Ok((relocated, remapped, unreadable))
    }
}
