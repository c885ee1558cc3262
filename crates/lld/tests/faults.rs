//! Unit-level media-fault behaviour of the disk manager: bounded read
//! retry, scrub/relocate/remap, quarantine, persistence of the bad sector
//! table across checkpoint and recovery (the crash harness, `harness`,
//! checks the recoveries), which of a cleaner victim's sectors are read,
//! with and without a latent sector among them, and a latent summary
//! sector in the recovery sweep read through the command queue.

mod harness;

use harness::{config, content, Run};
use ld_core::{Bid, LdError, Lid, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig};
use proptest::prelude::*;
use simdisk::{BlockDev, FaultConfig, Scheduler, SimDisk, SECTOR_SIZE};

const CAPACITY: u64 = 16 << 20;

fn disk() -> SimDisk {
    SimDisk::hp_c3010_with_capacity(CAPACITY)
}

/// Blocks with their contents.
type Blocks = Vec<(Bid, Vec<u8>)>;

/// Writes `n` 4 KB blocks on one list and flushes; returns their ids and
/// contents.
fn populate(lld: &mut Lld<SimDisk>, n: usize) -> Blocks {
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut blocks = Vec::new();
    for i in 0..n {
        let b = lld.new_block(lid, Pred::Start).unwrap();
        let d = content(i as u64, 4096);
        lld.write(b, &d).unwrap();
        blocks.push((b, d));
    }
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    blocks
}

/// The blocks that read back a device error; every other block must read
/// back its contents.
fn unreadable(lld: &mut Lld<SimDisk>, blocks: &[(Bid, Vec<u8>)]) -> Vec<Bid> {
    let mut buf = vec![0u8; 4096];
    let mut lost = Vec::new();
    for (b, d) in blocks {
        match lld.read(*b, &mut buf) {
            Ok(n) => assert_eq!(&buf[..n], &d[..], "wrong bytes for {b}"),
            Err(LdError::Device(_)) => lost.push(*b),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    lost
}

#[test]
fn transient_faults_are_retried_below_the_client() {
    let mut lld = Lld::format(disk(), config()).unwrap();
    let blocks = populate(&mut lld, 40);
    lld.disk_mut().set_faults(FaultConfig {
        seed: 11,
        transient_ppm: 50_000, // 5% of sectors, heavy but recoverable.
        transient_max_failures: 2,
        ..FaultConfig::default()
    });
    let mut buf = vec![0u8; 4096];
    // Read backwards: the drive's read-ahead buffer only caches forward,
    // so every read is a mechanical transfer that faces the fault model.
    for (b, d) in blocks.iter().rev() {
        let n = lld.read(*b, &mut buf).expect("read must retry through");
        assert_eq!(&buf[..n], &d[..], "retried read returned wrong bytes");
    }
    let stats = lld.stats();
    assert!(stats.retries > 0, "5% transient faults must cost retries");
    assert_eq!(stats.unreadable_blocks, 0);
    // Probing clears the recovered suspects; nothing is retired.
    let (relocated, remapped, unreadable) = lld.scrub().unwrap();
    assert_eq!((relocated, remapped, unreadable), (0, 0, 0));
    assert_eq!(lld.suspect_sector_count(), 0);
}

#[test]
fn latent_fault_under_live_block_reports_loss() {
    let mut lld = Lld::format(disk(), config()).unwrap();
    let blocks = populate(&mut lld, 40);
    lld.disk_mut().set_faults(FaultConfig {
        seed: 4,
        latent_ppm: 20_000, // 2%: some blocks certainly hit.
        ..FaultConfig::default()
    });
    let lost = unreadable(&mut lld, &blocks).len() as u64;
    assert!(lost > 0, "2% latent faults over 40 blocks must lose some");
    assert_eq!(lld.stats().unreadable_blocks, lost);
}

/// Forty 4 KB blocks on one list with every other one deleted, so live
/// segments carry dead extents (latent sectors under those are
/// remappable, and the surviving neighbours must be relocated off the
/// quarantined segments), then a media scan that finds the medium's
/// latent defects. Returns the run, its list and the sectors remapped.
fn scrubbed() -> Result<(Run, Lid, u64), TestCaseError> {
    let faults = FaultConfig {
        seed: 8,
        latent_ppm: 3_000,
        ..FaultConfig::default()
    };
    let mut run = Run::format(CAPACITY, false, config()).with_faults(Some(faults));
    let lid = run.new_list(PredList::Start, ListHints::default())?;
    let mut blocks = Vec::new();
    for i in 0..40 {
        let b = run.new_block(lid, Pred::Start)?;
        run.write(b, &content(i, 4096))?;
        blocks.push(b);
    }
    run.flush()?;
    for &b in blocks.iter().skip(1).step_by(2) {
        run.delete_block(b, lid)?;
    }
    run.flush()?;
    let (_, remapped, _) = run.scan()?;
    Ok((run, lid, remapped))
}

#[test]
fn scrub_relocates_remaps_and_quarantines() -> TestCaseResult {
    let (mut run, lid, remapped) = scrubbed()?;
    prop_assert!(remapped > 0, "the schedule must retire some sectors");
    prop_assert_eq!(run.lld.bad_sector_table().len() as u64, remapped);
    prop_assert!(
        run.lld.quarantined_segments() > 0,
        "bad sectors imply quarantine"
    );
    // Still writable: new blocks land outside quarantined segments. The
    // recovered blocks read back intact or reported, never silently wrong.
    let b = run.new_block(lid, Pred::Start)?;
    run.write(b, &content(0xEE, 4096))?;
    run.flush()?;
    let mut crashes = run.crashes();
    let end = crashes.writes();
    crashes.check(end, &[], None)?;
    Ok(())
}

#[test]
fn bad_sector_table_survives_checkpoint_and_recovery() -> TestCaseResult {
    let (mut run, lid, _) = scrubbed()?;
    let table = run.lld.bad_sector_table();
    let quarantined = run.lld.quarantined_segments();
    prop_assert!(!table.is_empty());

    // A clean shutdown's checkpoint carries the table, and a restart
    // restores it.
    run.shutdown()?;
    let shut = run.position();
    let mut run = run.reopen()?;
    prop_assert!(run.lld.stats().recovered_from_checkpoint);
    prop_assert_eq!(run.lld.bad_sector_table(), table.clone());
    prop_assert_eq!(run.lld.quarantined_segments(), quarantined);

    // A flushed write and an unflushed tail; the crash recovers by the
    // sweep, with the checkpoint stale but its bad-sector section still
    // the source of truth.
    let b = run.new_block(lid, Pred::Start)?;
    run.write(b, &content(0x77, 4096))?;
    run.flush()?;
    let b = run.new_block(lid, Pred::Start)?;
    run.write(b, &content(0x78, 4096))?;
    let mut crashes = run.crashes();
    for n in [shut, crashes.writes()] {
        let state = crashes.check(n, &[], None)?.recovery.observed.state;
        prop_assert_eq!(&state.bad_sectors, &table);
        prop_assert_eq!(state.quarantined, quarantined);
    }
    Ok(())
}

#[test]
fn reorganizers_leave_unreadable_blocks_in_place() {
    let mut lld = Lld::format(disk(), config()).unwrap();
    // Two lists written in alternation, so each is fragmented across
    // every segment they fill.
    let lids = [
        lld.new_list(PredList::Start, ListHints::default()).unwrap(),
        lld.new_list(PredList::Start, ListHints::default()).unwrap(),
    ];
    let mut blocks = Vec::new();
    for i in 0..80 {
        let b = lld.new_block(lids[i % 2], Pred::Start).unwrap();
        let d = content(i as u64, 4096);
        lld.write(b, &d).unwrap();
        blocks.push((b, d));
    }
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    lld.disk_mut().set_faults(FaultConfig {
        seed: 4,
        latent_ppm: 20_000,
        ..FaultConfig::default()
    });
    // Find the blocks whose copy is already unreadable (and where it is).
    let stranded: Vec<_> = unreadable(&mut lld, &blocks)
        .into_iter()
        .map(|b| (b, lld.block_segment(b)))
        .collect();
    assert!(
        !stranded.is_empty(),
        "2% latent faults must strand some blocks"
    );

    let (rewritten, _) = lld.reorganize(2, 0).expect("reorganize");
    assert_eq!(rewritten, 2, "both lists are fragmented");
    let moved = lld.reorganize_hot(blocks.len()).expect("reorganize_hot");
    assert!(moved > 0, "readable hot blocks move");

    // Never wrong bytes; a stranded block stays where it was.
    unreadable(&mut lld, &blocks);
    let mut buf = vec![0u8; 4096];
    for (b, seg) in &stranded {
        assert_eq!(lld.block_segment(*b), *seg, "unreadable {b} moved");
        assert!(lld.read(*b, &mut buf).is_err(), "latent faults persist");
    }

    // Scrub accounts for every stranded block: it cannot relocate an
    // unreadable copy, so it reports each one.
    let (_, _, unreadable) = lld.scrub().expect("scrub");
    assert!(
        unreadable >= stranded.len() as u64,
        "scrub reported {unreadable} of {} stranded blocks",
        stranded.len()
    );
    assert!(lld.quarantined_segments() > 0);
}

/// A victim for the cleaner at queue depth `depth` (SATF): the first
/// sealed segment, full of 4 KB blocks until its first `dead` and its last
/// were deleted. Returns the disk manager, the list, the victim and its
/// live blocks with their contents.
fn victim_with_dead_head(depth: u32, dead: usize) -> (Lld<SimDisk>, Lid, u32, Blocks) {
    let config = LldConfig {
        queue_depth: depth,
        writeback_depth: depth.saturating_sub(1),
        scheduler: Scheduler::Satf,
        ..config()
    };
    let mut lld = Lld::format(SimDisk::hp_c3010_with_capacity(2 << 20), config).unwrap();
    let per_segment = lld.layout().data_bytes / 4096;
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut blocks = Vec::new();
    for i in 0..per_segment {
        let b = lld.new_block(lid, Pred::Start).unwrap();
        let d = content(i as u64, 4096);
        lld.write(b, &d).unwrap();
        blocks.push((b, d));
    }
    // Full past the flush threshold, so the flush seals it.
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    let victim = lld.block_segment(blocks[0].0).unwrap();
    let last = blocks.pop().expect("a full segment");
    for (b, _) in blocks.drain(..dead).chain([last]) {
        lld.delete_block(b, lid, None).unwrap();
    }
    (lld, lid, victim, blocks)
}

/// Fills the disk with 4 KB blocks on `lid` until the cleaner runs, which
/// it does once the free pool reaches the reserve: the victim is then the
/// only segment not full.
fn fill_until_the_cleaner_runs(lld: &mut Lld<SimDisk>, lid: Lid) {
    let runs = lld.stats().cleaner_runs;
    for seed in 1000.. {
        if lld.stats().cleaner_runs > runs {
            return;
        }
        let b = lld.new_block(lid, Pred::Start).unwrap();
        lld.write(b, &content(seed, 4096)).unwrap();
    }
}

/// Latent defects whose only bad sectors in the `sectors` of a segment
/// starting at `base` are at offsets `bad` from it, at least one of them.
fn latent_only_in(base: u64, sectors: u64, bad: std::ops::Range<u64>) -> FaultConfig {
    let fails = |f: FaultConfig, s: u64| {
        let mut disk = disk();
        disk.set_faults(f);
        disk.read_sectors(base + s, &mut [0u8; SECTOR_SIZE])
            .is_err()
    };
    (0..)
        .map(|seed| FaultConfig {
            seed,
            latent_ppm: 10_000,
            ..FaultConfig::default()
        })
        .find(|&f| {
            let hit: Vec<u64> = (0..sectors).filter(|&s| fails(f, s)).collect();
            !hit.is_empty() && hit.iter().all(|s| bad.contains(s))
        })
        .expect("some seed places the defect")
}

/// The span rule: the cleaner reads a victim once, from the sector holding
/// its first live byte through the end of its summary (the summary alone
/// when nothing is live), on the direct path and as a queued prefetch.
#[test]
fn cleaner_reads_each_victim_from_its_first_live_sector() {
    for depth in [0, 8] {
        for dead in [0, 1, 5, 13, 14] {
            let (mut lld, lid, _, blocks) = victim_with_dead_head(depth, dead);
            let layout = *lld.layout();
            let span = if blocks.is_empty() {
                layout.summary_sectors()
            } else {
                layout.segment_sectors - 8 * dead as u64
            };
            let (before, reads) = (*lld.stats(), lld.disk().stats().read_ops);
            fill_until_the_cleaner_runs(&mut lld, lid);
            let after = *lld.stats();
            assert_eq!(
                (
                    after.segments_cleaned,
                    after.cleaner_sectors_read - before.cleaner_sectors_read,
                    lld.disk().stats().read_ops - reads,
                    after.queued_reads - before.queued_reads,
                ),
                (1, span, 1, u64::from(depth > 1)),
                "depth {depth}, first live block at {dead} x 4 KB"
            );
            assert_eq!(unreadable(&mut lld, &blocks), vec![], "depth {depth}");
        }
    }
}

/// A zero-length block stores nothing, so it does not start the span even
/// when it is the victim's first live block.
#[test]
fn a_zero_length_block_does_not_start_the_span() {
    let mut lld = Lld::format(SimDisk::hp_c3010_with_capacity(2 << 20), config()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let per_segment = lld.layout().data_bytes / 4096;
    let mut bids = Vec::new();
    for i in 0..=per_segment {
        let b = lld.new_block(lid, Pred::Start).unwrap();
        // The empty block sits at data offset 4 x 4 KB, the next one too.
        let len = if i == 4 { 0 } else { 4096 };
        lld.write(b, &content(i as u64, len)).unwrap();
        bids.push(b);
    }
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    // Everything before the empty block and the one after it: the first
    // live byte is at 5 x 4 KB.
    for &b in bids[..4].iter().chain([&bids[5], &bids[per_segment]]) {
        lld.delete_block(b, lid, None).unwrap();
    }
    let before = lld.stats().cleaner_sectors_read;
    fill_until_the_cleaner_runs(&mut lld, lid);
    assert_eq!(lld.stats().segments_cleaned, 1);
    let read = lld.stats().cleaner_sectors_read - before;
    assert_eq!(read, lld.layout().segment_sectors - 5 * 8);
    assert_eq!(lld.block_len(bids[4]), Ok(0));
}

/// The bytes before a victim's first live block are never read: a latent
/// sector there costs the cleaner nothing, on the direct path and in the
/// queued prefetch.
#[test]
fn cleaner_never_reads_a_latent_sector_before_the_first_live_block() {
    for depth in [0, 8] {
        let (mut lld, lid, victim, blocks) = victim_with_dead_head(depth, 4);
        let layout = *lld.layout();
        let base = layout.segment_base(victim);
        lld.disk_mut()
            .set_faults(latent_only_in(base, layout.segment_sectors, 0..4 * 8));
        fill_until_the_cleaner_runs(&mut lld, lid);
        let stats = *lld.stats();
        assert_eq!(stats.segments_cleaned, 1, "depth {depth}");
        assert_eq!(stats.retries, 0, "depth {depth}");
        assert_eq!(lld.disk().stats().read_faults, 0, "depth {depth}");
        assert_eq!(lld.suspect_sector_count(), 0, "depth {depth}");
        assert_eq!(unreadable(&mut lld, &blocks), vec![], "depth {depth}");
        lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
        let report = ldck::check_image(&lld.disk().image_bytes(), lld.config());
        assert!(report.is_clean(), "depth {depth}: {:?}", report.findings);
    }
}

/// A latent sector inside the span, under a live block, fails the span
/// read; the one fallback reads the summary and then each live block, so
/// every other block is forwarded, and the victim, still holding the
/// unreadable one, is retired rather than freed.
#[test]
fn latent_sector_inside_the_span_takes_the_one_fallback() {
    for depth in [0, 8] {
        let (mut lld, lid, victim, blocks) = victim_with_dead_head(depth, 4);
        let layout = *lld.layout();
        let base = layout.segment_base(victim);
        let faults = latent_only_in(base, layout.segment_sectors, 4 * 8..14 * 8);
        lld.disk_mut().set_faults(faults);
        fill_until_the_cleaner_runs(&mut lld, lid);
        let stats = *lld.stats();
        let retries = u64::from(lld.config().read_retries - 1);
        assert_eq!(stats.segments_cleaned, 0, "depth {depth}");
        assert_eq!(lld.quarantined_segments(), 1, "depth {depth}");
        // The span read and the stranded block's read spent the budget.
        assert_eq!(stats.retries, 2 * retries, "depth {depth}");
        assert_eq!(lld.suspect_sector_count(), 1, "depth {depth}");
        let stranded = unreadable(&mut lld, &blocks);
        assert_eq!(stranded.len(), 1, "depth {depth}");
        for (b, _) in &blocks {
            let stays = stranded.contains(b);
            assert_eq!(
                lld.block_segment(*b) == Some(victim),
                stays,
                "depth {depth}: {b}"
            );
        }
        lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
        let report = ldck::check_image(&lld.disk().image_bytes(), lld.config());
        assert!(report.is_clean(), "depth {depth}: {:?}", report.findings);
    }
}

/// Latent defects of which exactly one sector lies in a summary of the
/// first `written` segments of a `capacity` disk, and none in the
/// checkpoint header or any other summary. Returns them and that segment.
fn latent_in_one_summary(capacity: u64, written: u32) -> (FaultConfig, u32) {
    let layout = *Lld::format(SimDisk::hp_c3010_with_capacity(capacity), config())
        .unwrap()
        .layout();
    let summaries = (0..layout.segments).flat_map(|seg| {
        (0..layout.summary_sectors()).map(move |s| (seg, layout.summary_base(seg) + s))
    });
    let header = (0..layout.segment_base(0)).map(|s| (u32::MAX, s));
    (0..)
        .find_map(|seed| {
            let faults = FaultConfig {
                seed,
                latent_ppm: 1_000,
                ..FaultConfig::default()
            };
            let mut disk = SimDisk::hp_c3010_with_capacity(capacity);
            disk.set_faults(faults);
            let bad: Vec<u32> = (header.clone().chain(summaries.clone()))
                .filter(|&(_, s)| disk.read_sectors(s, &mut [0u8; SECTOR_SIZE]).is_err())
                .map(|(seg, _)| seg)
                .collect();
            match bad[..] {
                [seg] if seg < written => Some((faults, seg)),
                _ => None,
            }
        })
        .expect("some seed places the defect")
}

/// A latent sector in one summary, swept at queue depth 8 (SATF) and on
/// the direct path: the queued read of that summary fails once, the
/// retry path reads it again with the full budget, and the recovery
/// equals the direct one's, down to the retries it counts, with ldck
/// clean on the harness.
#[test]
fn a_latent_summary_sector_fails_the_queued_read_once() -> TestCaseResult {
    const DISK: u64 = 2 << 20;
    let (faults, seg) = latent_in_one_summary(DISK, 3);
    let recover_at = |depth: u32| -> Result<harness::Recovery, TestCaseError> {
        let config = LldConfig {
            queue_depth: depth,
            writeback_depth: depth.saturating_sub(1),
            scheduler: Scheduler::Satf,
            ..config()
        };
        let mut run = Run::format(DISK, false, config).with_faults(Some(faults));
        let lid = run.new_list(PredList::Start, ListHints::default())?;
        for i in 0..40 {
            let b = run.new_block(lid, Pred::Start)?;
            run.write(b, &content(i, 4096))?;
        }
        run.flush()?;
        run.scan()?;
        run.flush()?;
        let mut crashes = run.crashes();
        Ok(crashes.check_drawn(&[])?.recovery)
    };
    let direct = recover_at(0)?;
    let queued = recover_at(8)?;
    let retries = u64::from(config().read_retries);
    prop_assert_eq!(direct.disk.read_faults, retries, "segment {}", seg);
    prop_assert_eq!(queued.disk.read_faults, retries + 1, "segment {}", seg);
    prop_assert!(queued.observed.state == direct.observed.state);
    let (mut a, b) = (queued.observed.stats, direct.observed.stats);
    prop_assert_eq!(a.queued_reads, a.recovery_summaries_read);
    a.queued_reads = 0;
    a.recovery_us = b.recovery_us;
    prop_assert_eq!(a, b);
    Ok(())
}
