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

use std::collections::HashSet;

use ld_core::Result;
use simdisk::BlockDev;

use crate::block_map::{apply, BlockMap, ListTable, PROVISIONAL_LIST};
use crate::records::{decode_summary, Record};
use crate::usage::{SegState, SegUsage, UsageTable};
use crate::{checkpoint, dev, Layout, Lld, LldConfig, DEFAULT_BLOCK_SIZE};

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
    let mut buf = vec![0u8; layout.summary_bytes];
    let mut sweep_retries = 0u64;

    for seg in 0..layout.segments {
        if crate::read_sectors_retrying(
            &mut disk,
            layout.summary_base(seg),
            &mut buf,
            config.read_retries,
            |_, f| sweep_retries += u64::from(f.retried),
        )?
        .is_some()
        {
            // A summary unreadable even after retries is treated like a
            // torn segment write: the segment contributes nothing to the
            // replay. The paper's guarantee ("up to the last segment
            // successfully written") degrades by exactly this segment.
            continue;
        }
        let Some(summary) = decode_summary(&buf) else {
            continue;
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
    }

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

    // Medium-health records are monotone facts — a retired sector or a
    // quarantined segment never comes back — so they are collected outside
    // the timestamp replay (duplicates from cleaner re-logs collapse in
    // the sets) and applied after the usage rebuild below.
    let mut bad_sectors: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    let mut quarantined: Vec<u32> = Vec::new();
    for r in &all {
        match r.rec {
            Record::RetireSector { sector } => {
                bad_sectors.insert(sector);
            }
            Record::Quarantine { seg } => quarantined.push(seg),
            _ => {}
        }
    }

    // Replay in global operation order. For equal timestamps (a partial
    // segment superseded by its sealed form carries the same records), the
    // later physical write wins.
    all.sort_by_key(|r| (r.ts, r.seq, r.idx));
    let max_ts = all.last().map_or(0, |r| r.ts);
    let max_seq = all.iter().map(|r| r.seq).max().unwrap_or(0);

    let mut map = BlockMap::new();
    let mut lists = ListTable::new();
    // Records of explicit ARUs are deferred, grouped by their unit id
    // (§5.4 concurrent extension; a serial ARU is the one-group case), and
    // applied when the unit's EndAru record arrives. Units that never
    // ended — the crash interrupted them — are discarded wholesale,
    // giving the all-or-nothing guarantee.
    let mut pending: std::collections::HashMap<u64, Vec<&SortRec>> =
        std::collections::HashMap::new();
    let mut discarded = 0u64;
    for (i, r) in all.iter().enumerate() {
        // A partial segment superseded by a later partial (or its seal)
        // carries the *same* records under a higher sequence number. The
        // timestamp uniquely identifies a logical record, so apply only
        // the newest physical copy — replaying duplicates would, for
        // non-idempotent records like Swap, undo themselves.
        if all.get(i + 1).is_some_and(|next| next.ts == r.ts) {
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
    discarded += pending.values().map(|v| v.len() as u64).sum::<u64>();
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

    // Rebuild the segment usage table from the final block map. Segments
    // with a valid summary stay Live even at zero live bytes: their
    // summaries may hold the only copy of live metadata records, which the
    // cleaner re-logs before the segment is reused.
    let mut usage = UsageTable::new(layout.segments);
    let mut live = vec![0u64; layout.segments as usize];
    for (_, e) in map.iter() {
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
    for &seg in &quarantined {
        if seg < layout.segments {
            usage.quarantine(seg);
        }
    }
    for &s in &bad_sectors {
        if let Some(seg) = layout.segment_of_sector(s) {
            usage.quarantine(seg);
        }
    }

    // Materialize the NVRAM image into a free segment if any live block
    // still points into it.
    let mut nvram_applied = false;
    let nvram_refs: Vec<u64> = map
        .iter()
        .filter_map(|(bid, e)| (e.seg == NVRAM_SEG).then_some(bid))
        .collect();
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
