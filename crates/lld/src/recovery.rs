//! Failure recovery: the one-sweep summary scan (paper §3.6).
//!
//! After a failure, LLD "reads all of the segment summaries in a single
//! sweep over the disk and rebuilds its data structures from the
//! information stored therein". Every record carries a timestamp; the
//! newest record per entity wins. Atomic recovery units are honoured by the
//! paper's rule: records that do not end an ARU are queued until a record
//! that does commit arrives (their own `EndARU` or any more recently
//! committed operation); a trailing incomplete ARU is discarded. Each
//! record replays through `block_map::apply`, the function the live
//! operations applied it with before logging it.
//!
//! No checkpoints are taken during normal operation — recovery cost is one
//! summary read per segment, which §4.2 measures at 12 seconds for 788
//! summaries (experiment E6 reproduces this). A *clean* shutdown does write
//! a checkpoint ([`crate::checkpoint`]); `open` prefers it when valid.
//!
//! The sweep knows every read before it starts, so it plans them: each
//! next read is the remaining summary the head reaches soonest, by the
//! device's own estimate. The command queue takes no part. The records
//! are sorted into one replay order however the summaries arrived, so
//! the order of reading cannot change the recovered state.

use std::collections::{BTreeSet, HashSet};

use ld_core::Result;
use simdisk::BlockDev;

use crate::block_map::{apply, BlockMap, ListTable, PROVISIONAL_LIST};
use crate::records::{decode_summary, Record};
use crate::usage::{SegState, SegUsage, UsageTable};
use crate::{
    checkpoint, dev, read_sectors_retrying, FailedRead, Layout, Lld, LldConfig, DEFAULT_BLOCK_SIZE,
};

/// Placeholder segment id for blocks whose data lives in the NVRAM image
/// until it is materialized into a real segment.
pub const NVRAM_SEG: u32 = u32::MAX - 3;

/// Opens an LLD from a device: checkpoint if valid, else recovery sweep.
pub(crate) fn open<D: BlockDev>(mut disk: D, config: LldConfig) -> Result<Lld<D>> {
    let layout = Layout::compute(
        disk.total_sectors(),
        config.segment_bytes,
        config.summary_bytes,
    );
    let mut retries = 0u64;
    if let Some(state) =
        checkpoint::try_load(&mut disk, &layout, config.read_retries, &mut retries)?
    {
        let mut lld = Lld::from_parts(
            disk,
            config,
            layout,
            state.map,
            state.lists,
            state.usage,
            state.ts,
            state.seq,
        );
        lld.bad_sectors = state.bad_sectors;
        lld.stats.recovered_from_checkpoint = true;
        lld.stats.retries += retries;
        return Ok(lld);
    }
    let mut lld = sweep(disk, config, layout)?;
    lld.stats.retries += retries;
    Ok(lld)
}

struct SortRec {
    ts: u64,
    seq: u64,
    idx: u32,
    seg: u32,
    ends_aru: bool,
    aru: Option<u64>,
    rec: Record,
}

/// The one-sweep recovery.
fn sweep<D: BlockDev>(mut disk: D, config: LldConfig, layout: Layout) -> Result<Lld<D>> {
    let t0 = disk.now_us();
    let mut all: Vec<SortRec> = Vec::new();
    let mut seg_has_summary = vec![false; layout.segments as usize];
    let mut seg_max_ts = vec![0u64; layout.segments as usize];
    // Every summary seq found on disk.
    let mut seqs: HashSet<u64> = HashSet::new();
    let mut sweep_retries = 0u64;

    read_summaries(
        &mut disk,
        &config,
        &layout,
        &mut sweep_retries,
        |seg, buf| {
            let Some(summary) = decode_summary(buf) else {
                return;
            };
            seg_has_summary[seg as usize] = true;
            seqs.insert(summary.seq);
            for (idx, s) in summary.records.into_iter().enumerate() {
                seg_max_ts[seg as usize] = seg_max_ts[seg as usize].max(s.ts);
                all.push(SortRec {
                    ts: s.ts,
                    seq: summary.seq,
                    idx: idx as u32,
                    seg,
                    ends_aru: s.ends_aru,
                    aru: s.aru,
                    rec: s.rec,
                });
            }
        },
    )?;

    // The §5.3 NVRAM extension: a crash may have left the open segment's
    // tail in battery-backed NVRAM. Its records join the replay under a
    // placeholder segment id; the data is materialized afterwards. A tail
    // whose summary seq a segment already carries is on disk already: an
    // earlier recovery materialized it and lost the invalidation. Seqs are
    // never reused, so that segment is its copy; its records replay from
    // there, and the image is only invalidated.
    let mut nvram_image: Option<(Vec<u8>, Vec<u8>)> = None;
    let mut nvram_on_disk = false;
    let nv_capacity = disk.nvram_bytes();
    if nv_capacity > 0 {
        let mut raw = vec![0u8; nv_capacity];
        disk.nvram_read(0, &mut raw).map_err(dev)?;
        if let Some((summary_bytes, data)) = crate::nvram::decode_image(&raw) {
            match decode_summary(&summary_bytes) {
                Some(summary) if seqs.contains(&summary.seq) => nvram_on_disk = true,
                Some(summary) => {
                    for (idx, s) in summary.records.iter().enumerate() {
                        all.push(SortRec {
                            ts: s.ts,
                            seq: summary.seq,
                            idx: idx as u32,
                            seg: NVRAM_SEG,
                            ends_aru: s.ends_aru,
                            aru: s.aru,
                            rec: s.rec,
                        });
                    }
                    nvram_image = Some((summary_bytes, data));
                }
                None => {}
            }
        }
    }

    // Replay in global operation order. For equal timestamps (a partial
    // segment superseded by its sealed form carries the same records), the
    // later physical write wins. No two records share a key: a segment
    // holds one summary and `idx` is a record's place in it. So the sort
    // needs no stability, and no scratch buffer, to give one order however
    // the summaries were read.
    all.sort_unstable_by_key(|r| (r.ts, r.seq, r.idx, r.seg));
    let max_ts = all.last().map_or(0, |r| r.ts);
    let max_seq = all.iter().map(|r| r.seq).max().unwrap_or(0);
    let state = replay(&all, &BTreeSet::new());

    // Rebuild the segment usage table from the final block map. Segments
    // with a valid summary stay Live even at zero live bytes: their
    // summaries may hold the only copy of live metadata records, which the
    // cleaner re-logs before the segment is reused. `reclaim` frees those
    // the state provably does not need when the pool is short.
    let mut usage = UsageTable::new(layout.segments);
    let mut live = vec![0u64; layout.segments as usize];
    for (_, e) in state.map.iter() {
        if e.on_disk() && e.seg != NVRAM_SEG {
            live[e.seg as usize] += u64::from(e.stored_len);
        }
    }
    for seg in 0..layout.segments {
        if seg_has_summary[seg as usize] {
            usage.set(
                seg,
                SegUsage {
                    state: SegState::Live,
                    live_bytes: live[seg as usize],
                    last_write_ts: seg_max_ts[seg as usize],
                },
            );
        }
    }
    // Re-apply the medium's known damage before anything can allocate: a
    // quarantined segment must never rejoin the free pool, and every
    // retired sector's segment is quarantined (the invariant `ldck`
    // checks), whether or not its own Quarantine record survived.
    for &seg in &state.quarantined {
        if seg < layout.segments {
            usage.quarantine(seg);
        }
    }
    for &s in &state.bad_sectors {
        if let Some(seg) = layout.segment_of_sector(s) {
            usage.quarantine(seg);
        }
    }

    // Materialize the NVRAM image into a free segment if any live block
    // still points into it.
    let mut nvram_applied = false;
    let nvram_refs: Vec<u64> = (state.map.iter())
        .filter_map(|(bid, e)| (e.seg == NVRAM_SEG).then_some(bid))
        .collect();
    let wanted = config.cleaning_reserve_segments + u32::from(!nvram_refs.is_empty());
    reclaim(&all, &state, &seg_max_ts, &mut usage, wanted);
    let Replayed {
        mut map,
        lists,
        bad_sectors,
        discarded,
        orphans,
        ..
    } = state;
    if !nvram_refs.is_empty() {
        let (summary_bytes, data) = nvram_image
            .as_ref()
            .expect("NVRAM_SEG entries imply a decoded image"); // PANIC-OK: NVRAM_SEG entries exist only when the image decoded
        let target = usage
            .alloc_near(0)
            .ok_or_else(|| ld_core::LdError::Device("no free segment for NVRAM tail".into()))?;
        if !data.is_empty() {
            disk.write_sectors(layout.segment_base(target), data)
                .map_err(dev)?;
        }
        disk.write_sectors(layout.summary_base(target), summary_bytes)
            .map_err(dev)?;
        let mut live_bytes = 0u64;
        for bid in nvram_refs {
            let e = map.get_mut(bid).expect("listed above"); // PANIC-OK: the key comes from the snapshot being iterated
            e.seg = target;
            live_bytes += u64::from(e.stored_len);
        }
        usage.set(
            target,
            SegUsage {
                state: SegState::Live,
                live_bytes,
                last_write_ts: max_ts,
            },
        );
        nvram_applied = true;
    }

    let elapsed = disk.now_us() - t0;
    let mut lld = Lld::from_parts(
        disk,
        config,
        layout,
        map,
        lists,
        usage,
        max_ts + 1,
        max_seq + 1,
    );
    lld.bad_sectors = bad_sectors;
    // The image is now durable on disk; clear it.
    if nvram_applied || nvram_on_disk {
        lld.invalidate_nvram();
    }
    lld.stats.recovery_summaries_read = u64::from(layout.segments);
    lld.stats.recovery_us = elapsed;
    lld.stats.retries += sweep_retries;
    lld.stats.recovery_records_discarded = discarded;
    lld.stats.recovery_orphans = orphans;
    lld.stats.recovery_nvram_applied = nvram_applied;
    lld.disk.trace(ld_trace::Event::RecoverySweep {
        summaries: lld.stats.recovery_summaries_read,
        us: elapsed,
    });
    Ok(lld)
}

/// Reads every segment's summary and hands each readable one to `visit`
/// with its segment. A summary unreadable even after retries is treated
/// like a torn segment write: the segment contributes nothing to the
/// replay. The paper's guarantee ("up to the last segment successfully
/// written") degrades by exactly this segment.
///
/// The reads are planned: each next one is the remaining summary with the
/// smallest [`BlockDev::sched_access_us`], the lower segment on a tie,
/// read directly with the retry budget. Summaries lie a segment apart,
/// which on the drives modelled here is a few sectors apart in angle, so
/// segment order reaches each one just after it has passed under the
/// head; the plan trades that rotational wait for short seeks.
///
/// The search is bounded to [`PLAN_WINDOW`] summaries on either side of
/// the first remaining one at or past the head's cylinder, found by binary
/// search since `sched_cylinder` does not decrease with the segment. The
/// bound comes from what the device reports: `sched_access_us` is the
/// command overhead, a seek that grows with the distance between the
/// summary's `sched_cylinder` and `sched_head_cylinder`, and a rotational
/// wait under one revolution. So a summary farther out beats the window's
/// best only if the wait it saves exceeds the seek it adds. On the HP
/// C3010, 512 KB segments (E6, Loge) put summaries 0.9 cylinder and 4
/// sectors of angle apart, 128 KB segments (E17) 0.22 cylinder and 16
/// sectors; either way 15 successive summaries stand at 15 angles 4
/// sectors (0.74 ms) apart, so a window reaching 15 ahead holds one with
/// little wait left to save (at ±6 a sweep of E6's disk waits 5.8 ms a
/// summary, as in segment order). On those disks every unbounded scan
/// chose within −13…+16 positions, and
/// `planned_order_matches_the_unbounded_scan` holds the two orders equal.
/// With many summaries a cylinder (64 KB segments or less on 400 MB) the
/// unbounded choice can lie farther out; the plan then differs from it in
/// order only, never in the recovered state. Each step costs a binary
/// search and `2 * PLAN_WINDOW + 1` estimates, not one per remaining
/// summary.
fn read_summaries<D: BlockDev>(
    disk: &mut D,
    config: &LldConfig,
    layout: &Layout,
    retries: &mut u64,
    mut visit: impl FnMut(u32, &[u8]),
) -> Result<()> {
    let mut buf = vec![0u8; layout.summary_bytes];
    let mut left = summaries(disk, layout);
    while let Some(i) = next_summary(disk, layout, &left, PLAN_WINDOW) {
        let (_, seg) = left.remove(i);
        let count = |_: &mut D, f: FailedRead| *retries += u64::from(f.retried);
        let start = layout.summary_base(seg);
        if read_sectors_retrying(disk, start, &mut buf, config.read_retries, count)?.is_none() {
            visit(seg, &buf);
        }
    }
    Ok(())
}

/// How many summaries on either side of the first remaining one at or past
/// the head's cylinder the sweep's plan considers (see [`read_summaries`]).
const PLAN_WINDOW: usize = 16;

/// Every segment with its summary's cylinder, in segment order.
fn summaries<D: BlockDev>(disk: &D, layout: &Layout) -> Vec<(u64, u32)> {
    (0..layout.segments)
        .map(|seg| (disk.sched_cylinder(layout.summary_base(seg)), seg))
        .collect()
}

/// The index in `left` (remaining [`summaries`]) of the summary to read
/// next: the cheapest to reach among the `window` on either side of the
/// first at or past the head's cylinder, the first on a tie. `None` once
/// `left` is empty.
fn next_summary<D: BlockDev>(
    disk: &D,
    layout: &Layout,
    left: &[(u64, u32)],
    window: usize,
) -> Option<usize> {
    let head = disk.sched_head_cylinder();
    let pivot = left.partition_point(|&(cyl, _)| cyl < head);
    let end = pivot.saturating_add(window).saturating_add(1);
    (pivot.saturating_sub(window)..end.min(left.len()))
        .min_by_key(|&i| disk.sched_access_us(layout.summary_base(left[i].1)))
}

/// What a replay of the log rebuilds.
struct Replayed {
    map: BlockMap,
    lists: ListTable,
    /// Medium-health facts, collected outside the timestamp order.
    bad_sectors: BTreeSet<u64>,
    quarantined: BTreeSet<u32>,
    /// Records of explicit ARUs that never ended.
    discarded: u64,
    /// Blocks no surviving record attached to a list.
    orphans: u64,
}

impl Replayed {
    /// Whether `self` and `other` are the same disk state: every table,
    /// its high-water mark and the list of lists.
    fn same_state(&self, other: &Replayed) -> bool {
        self.map.capacity_slots() == other.map.capacity_slots()
            && self.map.iter().eq(other.map.iter())
            && self.lists.capacity_slots() == other.lists.capacity_slots()
            && self.lists.iter().eq(other.lists.iter())
            && self.lists.order() == other.lists.order()
            && self.bad_sectors == other.bad_sectors
            && self.quarantined == other.quarantined
    }
}

/// Replays `all` (sorted by timestamp, sequence and index), leaving out
/// the records of the segments in `without`.
fn replay(all: &[SortRec], without: &BTreeSet<u32>) -> Replayed {
    let kept = || all.iter().filter(|r| !without.contains(&r.seg));

    // Medium-health records are monotone facts — a retired sector or a
    // quarantined segment never comes back — so they are collected outside
    // the timestamp replay (duplicates from cleaner re-logs collapse in
    // the sets) and applied after the usage rebuild.
    let mut bad_sectors: BTreeSet<u64> = BTreeSet::new();
    let mut quarantined: BTreeSet<u32> = BTreeSet::new();
    for r in kept() {
        match r.rec {
            Record::RetireSector { sector } => {
                bad_sectors.insert(sector);
            }
            Record::Quarantine { seg } => {
                quarantined.insert(seg);
            }
            _ => {}
        }
    }

    let mut map = BlockMap::new();
    let mut lists = ListTable::new();
    // Records of explicit ARUs are deferred, grouped by their unit id
    // (§5.4 concurrent extension; a serial ARU is the one-group case), and
    // applied when the unit's EndAru record arrives. Units that never
    // ended — the crash interrupted them — are discarded wholesale,
    // giving the all-or-nothing guarantee.
    let mut pending: std::collections::HashMap<u64, Vec<&SortRec>> =
        std::collections::HashMap::new();
    let mut records = kept().peekable();
    while let Some(r) = records.next() {
        // A partial segment superseded by a later partial (or its seal)
        // carries the *same* records under a higher sequence number. The
        // timestamp uniquely identifies a logical record, so apply only
        // the newest physical copy. Every record is an upsert, so applying
        // the older copies first would leave the same tables; the skip
        // keeps each logical record counted once, which
        // `recovery_records_discarded` relies on.
        if records.peek().is_some_and(|next| next.ts == r.ts) {
            continue;
        }
        match r.aru {
            Some(id) if !r.ends_aru => pending.entry(id).or_default().push(r),
            Some(id) => {
                // The unit's EndAru: commit its deferred records in order.
                for p in pending.remove(&id).unwrap_or_default() {
                    apply(&mut map, &mut lists, p.seg, &p.rec);
                }
                apply(&mut map, &mut lists, r.seg, &r.rec);
            }
            None => apply(&mut map, &mut lists, r.seg, &r.rec),
        }
    }
    let discarded = pending.values().map(|v| v.len() as u64).sum::<u64>();
    drop(pending);

    // Post-pass 1: assign list owners by walking every list (the summaries
    // do not log per-block ownership changes; ownership is derivable).
    let mut visited: HashSet<u64> = HashSet::new();
    let lids: Vec<u64> = lists.iter().map(|(l, _)| l).collect();
    for lid in lids {
        let mut prev: Option<u64> = None;
        let mut cur = lists.get(lid).and_then(|e| e.first);
        while let Some(b) = cur {
            if !visited.insert(b) {
                // Cycle or cross-linked lists: truncate defensively.
                break_chain(&mut map, &mut lists, lid, prev);
                break;
            }
            match map.get_mut(b) {
                Some(e) => {
                    e.list = lid;
                    prev = Some(b);
                    cur = e.next;
                }
                None => {
                    // Dangling link to a freed block: truncate.
                    break_chain(&mut map, &mut lists, lid, prev);
                    break;
                }
            }
        }
    }

    // Post-pass 2: drop blocks that no surviving record attached to a list.
    let orphan_bids: Vec<u64> = map
        .iter()
        .filter_map(|(bid, e)| (e.list == PROVISIONAL_LIST).then_some(bid))
        .collect();
    let orphans = orphan_bids.len() as u64;
    for bid in orphan_bids {
        map.free(bid);
    }
    // Blocks with a zero size class (provisional entries repaired by a
    // later NewBlock re-log always have one; be safe regardless).
    let fix: Vec<u64> = map
        .iter()
        .filter_map(|(bid, e)| (e.size_class == 0).then_some(bid))
        .collect();
    for bid in fix {
        let default = DEFAULT_BLOCK_SIZE as u32;
        let e = map.get_mut(bid).expect("listed above"); // PANIC-OK: the key comes from the snapshot being iterated
        e.size_class = e.logical_len.max(default);
    }

    map.rebuild_free_stack();
    lists.rebuild_free_stack();
    Replayed {
        map,
        lists,
        bad_sectors,
        quarantined,
        discarded,
        orphans,
    }
}

/// Frees Live segments until `usage` has `wanted` free ones, if it has
/// fewer. Once every segment has been written, every one holds a valid
/// summary and the sweep finds no free segment at all, although at run
/// time the cleaner kept a reserve of them: cleaned victims and superseded
/// partial writes whose summaries nothing needs any more. Without a free
/// segment the next seal fails with `NoSpace` and an NVRAM tail cannot be
/// materialized. A segment is freed only if leaving its summary out of the
/// replay (together with those freed before it) rebuilds `truth`, the
/// state of the whole log; candidates hold no live bytes, oldest records
/// first. Most are victims the cleaner had freed, so the ones still
/// needed are tried together first, and one at a time only if that fails.
fn reclaim(
    all: &[SortRec],
    truth: &Replayed,
    seg_max_ts: &[u64],
    usage: &mut UsageTable,
    wanted: u32,
) {
    let mut candidates: Vec<u32> = (usage.iter())
        .filter(|(_, u)| u.state == SegState::Live && u.live_bytes == 0)
        .map(|(seg, _)| seg)
        .collect();
    candidates.sort_by_key(|&seg| (seg_max_ts[seg as usize], seg));
    let mut candidates = candidates.into_iter();
    let mut without = BTreeSet::new();
    let mut free = |segs: &[u32], usage: &mut UsageTable| {
        without.extend(segs);
        let unneeded = replay(all, &without).same_state(truth);
        for seg in segs {
            if unneeded {
                usage.release(*seg);
            } else {
                without.remove(seg);
            }
        }
        unneeded
    };
    while let Some(short) = wanted.checked_sub(usage.free_count()).filter(|&n| n > 0) {
        let group: Vec<u32> = candidates.by_ref().take(short as usize).collect();
        if group.is_empty() {
            return;
        }
        if !free(&group, usage) && group.len() > 1 {
            for seg in group {
                free(&[seg], usage);
            }
        }
    }
}

/// Truncates a list after `prev` (or empties it when `prev` is `None`).
fn break_chain(map: &mut BlockMap, lists: &mut ListTable, lid: u64, prev: Option<u64>) {
    match prev {
        Some(p) => {
            if let Some(e) = map.get_mut(p) {
                e.next = None;
            }
        }
        None => {
            if let Some(l) = lists.get_mut(lid) {
                l.first = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdisk::SimDisk;

    /// The order in which the sweep reads the summaries of `layout`,
    /// planned over `window` summaries on either side, from `disk`'s head
    /// and clock.
    fn planned_order(mut disk: SimDisk, layout: &Layout, window: usize) -> Vec<u32> {
        let mut left = summaries(&disk, layout);
        let mut buf = vec![0u8; layout.summary_bytes];
        let mut order = Vec::new();
        while let Some(i) = next_summary(&disk, layout, &left, window) {
            let (_, seg) = left.remove(i);
            disk.read_sectors(layout.summary_base(seg), &mut buf)
                .unwrap();
            order.push(seg);
        }
        order
    }

    /// The bounded plan reads in the unbounded scan's order on the disks
    /// of E6 and Loge (400 MB, 512 KB segments) and E17 (48 MB, 128 KB
    /// segments), at full and quick scale, from heads at the start, a
    /// third and two thirds of the disk, at three platter angles.
    #[test]
    fn planned_order_matches_the_unbounded_scan() {
        let disks = [
            (400 << 20, 512 << 10),
            (64 << 20, 512 << 10),
            (48 << 20, 128 << 10),
            (24 << 20, 128 << 10),
        ];
        for (bytes, segment_bytes) in disks {
            for start in 0..3 {
                let disk = || {
                    let mut disk = SimDisk::hp_c3010_with_capacity(bytes);
                    let sector = disk.total_sectors() * start / 3;
                    disk.read_sectors(sector, &mut [0u8; 512]).unwrap();
                    disk.advance_us(start * 4_321);
                    disk
                };
                let layout = Layout::compute(disk().total_sectors(), segment_bytes, 8 << 10);
                assert_eq!(
                    planned_order(disk(), &layout, PLAN_WINDOW),
                    planned_order(disk(), &layout, usize::MAX),
                    "{} MB disk, {} KB segments, start {start}",
                    bytes >> 20,
                    segment_bytes >> 10
                );
            }
        }
    }

    /// The records of one segment, stamped from `ts` on, each its own ARU.
    fn logged(seg: u32, seq: u64, ts: u64, recs: &[Record]) -> Vec<SortRec> {
        (recs.iter().enumerate())
            .map(|(i, &rec)| SortRec {
                ts: ts + i as u64,
                seq,
                idx: i as u32,
                seg,
                ends_aru: true,
                aru: None,
                rec,
            })
            .collect()
    }

    #[test]
    fn reclaim_frees_only_summaries_the_state_does_not_need() {
        let list = |lid, pred| Record::NewList {
            lid,
            pred,
            hints: ld_core::ListHints::default(),
        };
        let block = [
            Record::NewBlock {
                bid: 0,
                lid: 0,
                size_class: 4096,
            },
            Record::Link { bid: 0, next: None },
            Record::ListHead {
                lid: 0,
                first: Some(0),
            },
            Record::WriteBlock {
                bid: 0,
                offset: 0,
                stored_len: 4096,
                logical_len: 4096,
                compressed: false,
            },
        ];
        // Segment 0 as first written; segment 1 the cleaner's copy of all
        // of it, now holding the block; segment 2 the only record of list 1.
        let mut all = logged(0, 1, 1, &[&[list(0, None)][..], &block].concat());
        all.extend(logged(1, 2, 10, &[&[list(0, None)][..], &block].concat()));
        all.extend(logged(2, 3, 20, &[list(1, Some(0))]));
        let truth = replay(&all, &BTreeSet::new());
        assert_eq!(truth.lists.order(), vec![0, 1]);

        let mut usage = UsageTable::new(4);
        for seg in 0..3 {
            usage.set(
                seg,
                SegUsage {
                    state: SegState::Live,
                    live_bytes: if seg == 1 { 4096 } else { 0 },
                    last_write_ts: 0,
                },
            );
        }
        reclaim(&all, &truth, &[5, 14, 20, 0], &mut usage, 4);
        let free: Vec<SegState> = (0..4).map(|seg| usage.get(seg).state).collect();
        assert_eq!(
            free,
            [
                SegState::Free,
                SegState::Live,
                SegState::Live,
                SegState::Free
            ]
        );
    }
}
