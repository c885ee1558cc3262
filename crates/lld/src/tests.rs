//! Integration-style tests of the full LLD stack over the disk simulator.

use ld_core::{FailureSet, LdError, ListHints, LogicalDisk, Pred, PredList};
use simdisk::SimDisk;

use crate::{CleaningPolicy, Lld, LldConfig};

fn small_lld() -> Lld<SimDisk> {
    let disk = SimDisk::hp_c3010_with_capacity(8 << 20);
    Lld::format(disk, LldConfig::small_for_tests()).unwrap()
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31) ^ seed)
        .collect()
}

/// Crash: drop all in-memory state, revive the device, re-open.
fn crash_and_reopen(lld: Lld<SimDisk>) -> Lld<SimDisk> {
    let config = lld.config().clone();
    let mut disk = lld.into_disk();
    disk.crash_now();
    disk.revive();
    Lld::open(disk, config).unwrap()
}

#[test]
fn write_read_roundtrip_in_memory_and_on_disk() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let bid = lld.new_block(lid, Pred::Start).unwrap();
    let data = pattern(4096, 1);
    lld.write(bid, &data).unwrap();

    // Served from the open segment.
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(bid, &mut buf).unwrap(), 4096);
    assert_eq!(buf, data);
    assert_eq!(lld.stats().block_reads_from_memory, 1);

    // Force it to disk and read again.
    lld.seal().unwrap();
    let mut buf2 = vec![0u8; 4096];
    assert_eq!(lld.read(bid, &mut buf2).unwrap(), 4096);
    assert_eq!(buf2, data);
    assert_eq!(lld.stats().block_reads_from_memory, 1);
}

#[test]
fn unwritten_block_reads_empty() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let bid = lld.new_block(lid, Pred::Start).unwrap();
    let mut buf = vec![0u8; 16];
    assert_eq!(lld.read(bid, &mut buf).unwrap(), 0);
    assert_eq!(lld.block_len(bid).unwrap(), 0);
}

#[test]
fn list_order_is_preserved_across_operations() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    let c = lld.new_block(lid, Pred::After(b)).unwrap();
    let x = lld.new_block(lid, Pred::After(a)).unwrap();
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a, x, b, c]);
    lld.delete_block(x, lid, Some(a)).unwrap();
    lld.delete_block(a, lid, None).unwrap();
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![b, c]);
}

#[test]
fn wrong_delete_hint_still_works() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    let c = lld.new_block(lid, Pred::After(b)).unwrap();
    // Hint `c` is wrong for deleting `b` (true pred is `a`).
    lld.delete_block(b, lid, Some(c)).unwrap();
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a, c]);
}

#[test]
fn blocks_spanning_many_segments_survive() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut bids = Vec::new();
    let mut pred = Pred::Start;
    // 64 KB segments with 4 KB summary → 60 KB data; write 100 blocks of
    // 4 KB = several segments.
    for i in 0..100u8 {
        let bid = lld.new_block(lid, pred).unwrap();
        lld.write(bid, &pattern(4096, i)).unwrap();
        bids.push(bid);
        pred = Pred::After(bid);
    }
    assert!(lld.stats().segments_sealed >= 5);
    for (i, bid) in bids.iter().enumerate() {
        let mut buf = vec![0u8; 4096];
        lld.read(*bid, &mut buf).unwrap();
        assert_eq!(buf, pattern(4096, i as u8), "block {i}");
    }
}

#[test]
fn flush_below_threshold_writes_partial_segment() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let bid = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(bid, &pattern(4096, 9)).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();
    assert_eq!(lld.stats().partial_segment_writes, 1);
    assert_eq!(lld.stats().segments_sealed, 0);

    // A second flush with no new work is free.
    let writes_before = lld.disk().stats().write_ops;
    lld.flush(FailureSet::PowerFailure).unwrap();
    assert_eq!(lld.disk().stats().write_ops, writes_before);

    // The partially-flushed block is still served from memory and the
    // scratch is recycled at seal with no cleaning.
    lld.seal().unwrap();
    assert_eq!(lld.stats().segments_cleaned, 0);
    let mut buf = vec![0u8; 4096];
    lld.read(bid, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 9));
}

#[test]
fn flush_above_threshold_seals() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    // Data region is 60 KB; 75% threshold = 45 KB; write 12 × 4 KB = 48 KB.
    let mut pred = Pred::Start;
    for i in 0..12u8 {
        let bid = lld.new_block(lid, pred).unwrap();
        lld.write(bid, &pattern(4096, i)).unwrap();
        pred = Pred::After(bid);
    }
    lld.flush(FailureSet::PowerFailure).unwrap();
    assert_eq!(lld.stats().flush_seals, 1);
    assert_eq!(lld.stats().partial_segment_writes, 0);
}

#[test]
fn crash_recovery_restores_flushed_state() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    lld.write(b, &pattern(2000, 2)).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();

    let mut lld = crash_and_reopen(lld);
    assert!(!lld.stats().recovered_from_checkpoint);
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a, b]);
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(a, &mut buf).unwrap(), 4096);
    assert_eq!(buf, pattern(4096, 1));
    assert_eq!(lld.read(b, &mut buf[..2000]).unwrap(), 2000);
    assert_eq!(&buf[..2000], &pattern(2000, 2)[..]);
}

#[test]
fn unflushed_tail_is_lost_on_crash() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();
    // Unflushed: a second block and an overwrite of `a`.
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    lld.write(b, &pattern(4096, 2)).unwrap();
    lld.write(a, &pattern(4096, 3)).unwrap();

    let mut lld = crash_and_reopen(lld);
    // Only the flushed prefix survives ("recovery up to the last segment
    // successfully written", §5.2).
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a]);
    let mut buf = vec![0u8; 4096];
    lld.read(a, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 1));
    assert_eq!(
        lld.read(b, &mut buf),
        Err(LdError::UnknownBlock(b)),
        "unflushed block must not survive"
    );
}

#[test]
fn aru_is_atomic_across_crash() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();

    // An ARU that updates `a` and creates `b`, flushed only in part:
    // the flush happens *before* the EndARU.
    lld.begin_aru().unwrap();
    lld.write(a, &pattern(4096, 99)).unwrap();
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    lld.write(b, &pattern(4096, 98)).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();
    // Crash before end_aru: all three operations must vanish.
    let mut lld = crash_and_reopen(lld);
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a]);
    let mut buf = vec![0u8; 4096];
    lld.read(a, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 1), "ARU write must be rolled back");
    assert!(lld.stats().recovery_records_discarded > 0);
}

#[test]
fn completed_aru_survives_crash() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();

    lld.begin_aru().unwrap();
    lld.write(a, &pattern(4096, 50)).unwrap();
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    lld.write(b, &pattern(4096, 51)).unwrap();
    lld.end_aru().unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();

    let mut lld = crash_and_reopen(lld);
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a, b]);
    let mut buf = vec![0u8; 4096];
    lld.read(a, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 50));
    lld.read(b, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 51));
}

#[test]
fn torn_segment_write_is_ignored_at_recovery() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();

    // Arm a crash that tears the next segment write halfway.
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    lld.write(b, &pattern(4096, 2)).unwrap();
    lld.disk_mut().crash_after_writes(10);
    let r = lld.flush(FailureSet::PowerFailure);
    assert!(r.is_err(), "torn write must surface as an error");

    let config = lld.config().clone();
    let mut disk = lld.into_disk();
    disk.revive();
    let mut lld = Lld::open(disk, config).unwrap();
    // The torn partial is invisible; the earlier flushed state survives.
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a]);
    let mut buf = vec![0u8; 4096];
    lld.read(a, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 1));
}

#[test]
fn clean_shutdown_checkpoint_roundtrip() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut pred = Pred::Start;
    let mut bids = Vec::new();
    for i in 0..20u8 {
        let bid = lld.new_block(lid, pred).unwrap();
        lld.write(bid, &pattern(1000 + i as usize, i)).unwrap();
        bids.push(bid);
        pred = Pred::After(bid);
    }
    lld.shutdown().unwrap();
    assert_eq!(lld.flush(FailureSet::PowerFailure), Err(LdError::ShutDown));

    let config = lld.config().clone();
    let disk = lld.into_disk();
    let mut lld = Lld::open(disk, config.clone()).unwrap();
    assert!(lld.stats().recovered_from_checkpoint);
    assert_eq!(
        lld.list_blocks(lid).unwrap(),
        bids,
        "checkpoint restores lists"
    );
    for (i, bid) in bids.iter().enumerate() {
        let mut buf = vec![0u8; 2000];
        let n = lld.read(*bid, &mut buf).unwrap();
        assert_eq!(n, 1000 + i);
        assert_eq!(&buf[..n], &pattern(n, i as u8)[..]);
    }

    // The marker was invalidated on load: a crash now must fall back to
    // the sweep and still produce the same state.
    let mut lld2 = crash_and_reopen(lld);
    assert!(!lld2.stats().recovered_from_checkpoint);
    assert_eq!(lld2.list_blocks(lid).unwrap(), bids);
}

#[test]
fn checkpoint_load_equals_sweep_rebuild() {
    // Build state, shut down, then compare checkpoint-loaded tables with a
    // sweep of the same medium.
    let mut lld = small_lld();
    let l1 = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let l2 = lld
        .new_list(PredList::After(l1), ListHints::default())
        .unwrap();
    let mut pred = Pred::Start;
    for i in 0..30u8 {
        let lid = if i % 2 == 0 { l1 } else { l2 };
        let p = if i % 2 == 0 { pred } else { Pred::Start };
        let bid = lld.new_block(lid, p).unwrap();
        lld.write(bid, &pattern(3000, i)).unwrap();
        if i % 2 == 0 {
            pred = Pred::After(bid);
        }
    }
    lld.shutdown().unwrap();
    let config = lld.config().clone();
    let disk = lld.into_disk();

    let mut from_ckpt = Lld::open(disk, config.clone()).unwrap();
    assert!(from_ckpt.stats().recovered_from_checkpoint);
    let ckpt_l1 = from_ckpt.list_blocks(l1).unwrap();
    let ckpt_l2 = from_ckpt.list_blocks(l2).unwrap();
    let ckpt_lists = from_ckpt.list_of_lists();

    let mut disk = from_ckpt.into_disk();
    disk.crash_now();
    disk.revive();
    let mut from_sweep = Lld::open(disk, config).unwrap();
    assert!(!from_sweep.stats().recovered_from_checkpoint);
    assert_eq!(from_sweep.list_blocks(l1).unwrap(), ckpt_l1);
    assert_eq!(from_sweep.list_blocks(l2).unwrap(), ckpt_l2);
    assert_eq!(from_sweep.list_of_lists(), ckpt_lists);
}

#[test]
fn cleaner_reclaims_overwritten_segments() {
    // Small disk: fill it, then overwrite everything repeatedly so dead
    // segments accumulate and cleaning must kick in.
    let disk = SimDisk::hp_c3010_with_capacity(2 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut bids = Vec::new();
    let mut pred = Pred::Start;
    // ~1 MB of blocks on a 2 MB disk.
    for _ in 0..256 {
        let bid = lld.new_block(lid, pred).unwrap();
        bids.push(bid);
        pred = Pred::After(bid);
    }
    for round in 0..6u8 {
        for (i, bid) in bids.iter().enumerate() {
            lld.write(*bid, &pattern(4096, round.wrapping_mul(37) ^ i as u8))
                .unwrap();
        }
    }
    assert!(lld.stats().segments_cleaned > 0, "cleaner must have run");
    // All data still correct after cleaning.
    for (i, bid) in bids.iter().enumerate() {
        let mut buf = vec![0u8; 4096];
        lld.read(*bid, &mut buf).unwrap();
        assert_eq!(
            buf,
            pattern(4096, 5u8.wrapping_mul(37) ^ i as u8),
            "block {i}"
        );
    }
    // And the state survives a crash (cleaner re-logged metadata).
    lld.flush(FailureSet::PowerFailure).unwrap();
    let mut lld = crash_and_reopen(lld);
    assert_eq!(lld.list_blocks(lid).unwrap(), bids);
    for (i, bid) in bids.iter().enumerate() {
        let mut buf = vec![0u8; 4096];
        lld.read(*bid, &mut buf).unwrap();
        assert_eq!(buf, pattern(4096, 5u8.wrapping_mul(37) ^ i as u8));
    }
}

/// Regression: the cleaner kept the entities a victim's summary mentions in
/// hash sets and re-logged them in hasher order, so one workload produced
/// different on-disk summaries (and simulated timings) in different runs.
#[test]
fn cleaning_is_deterministic() {
    fn run() -> Lld<SimDisk> {
        let disk = SimDisk::hp_c3010_with_capacity(2 << 20);
        let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
        let mut bids = Vec::new();
        for _ in 0..4 {
            let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
            let mut pred = Pred::Start;
            for _ in 0..64 {
                let bid = lld.new_block(lid, pred).unwrap();
                bids.push(bid);
                pred = Pred::After(bid);
            }
        }
        for round in 0..6u8 {
            for (i, bid) in bids.iter().enumerate().skip(usize::from(round) % 3) {
                lld.write(*bid, &pattern(4096, round ^ i as u8)).unwrap();
            }
        }
        lld.flush(FailureSet::PowerFailure).unwrap();
        assert!(lld.stats().segments_cleaned > 0, "cleaner must have run");
        lld
    }
    let (a, b) = (run(), run());
    assert_eq!(a.stats(), b.stats());
    assert!(a.disk().image_bytes() == b.disk().image_bytes());
}

#[test]
fn no_space_is_reported_and_recoverable() {
    let disk = SimDisk::hp_c3010_with_capacity(1 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut bids = Vec::new();
    let mut pred = Pred::Start;
    loop {
        match lld.new_block(lid, pred) {
            Ok(bid) => {
                lld.write(bid, &pattern(4096, bids.len() as u8)).unwrap();
                pred = Pred::After(bid);
                bids.push(bid);
            }
            Err(LdError::NoSpace) => break,
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(!bids.is_empty());
    // Freeing a block makes room again, and keeps making it: alloc/free
    // churn on the full disk logs records whose summaries the cleaner
    // must reclaim, without leaking space.
    let victim = bids.pop().unwrap();
    lld.delete_block(victim, lid, None).unwrap();
    let free = lld.free_bytes();
    let cleaned = lld.stats().segments_cleaned;
    for _ in 0..5000 {
        let bid = lld.new_block(lid, Pred::Start).unwrap();
        lld.delete_block(bid, lid, None).unwrap();
    }
    assert_eq!(lld.free_bytes(), free);
    assert!(
        lld.stats().segments_cleaned > cleaned,
        "churn summaries were cleaned"
    );
    assert!(lld.new_block(lid, Pred::Start).is_ok());
}

#[test]
fn compression_hint_shrinks_stored_bytes_transparently() {
    let mut lld = small_lld();
    let lid = lld
        .new_list(PredList::Start, ListHints::compressed())
        .unwrap();
    let bid = lld.new_block(lid, Pred::Start).unwrap();
    // Compressible content.
    let data: Vec<u8> = b"segment cleaning policy "
        .iter()
        .copied()
        .cycle()
        .take(4096)
        .collect();
    lld.write(bid, &data).unwrap();
    assert!(lld.stats().stored_bytes_written < lld.stats().user_bytes_written / 2);
    lld.seal().unwrap();
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(bid, &mut buf).unwrap(), 4096);
    assert_eq!(buf, data);

    // Compressed blocks survive crash recovery too.
    lld.flush(FailureSet::PowerFailure).unwrap();
    let mut lld = crash_and_reopen(lld);
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(bid, &mut buf).unwrap(), 4096);
    assert_eq!(buf, data);
}

#[test]
fn multiple_block_sizes_coexist() {
    let mut lld = small_lld();
    let files = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let inodes = lld
        .new_list(PredList::After(files), ListHints::default())
        .unwrap();
    let d = lld.new_block(files, Pred::Start).unwrap();
    let i = lld.new_block_with_size(inodes, Pred::Start, 64).unwrap();
    lld.write(d, &pattern(4096, 7)).unwrap();
    lld.write(i, &pattern(64, 8)).unwrap();
    assert_eq!(
        lld.write(i, &pattern(65, 8)),
        Err(LdError::BlockTooLarge { got: 65, max: 64 })
    );
    lld.flush(FailureSet::PowerFailure).unwrap();
    let mut lld = crash_and_reopen(lld);
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(i, &mut buf).unwrap(), 64);
    assert_eq!(&buf[..64], &pattern(64, 8)[..]);
    // Size classes survive recovery: an oversized write still fails.
    assert!(matches!(
        lld.write(i, &pattern(65, 8)),
        Err(LdError::BlockTooLarge { .. })
    ));
}

#[test]
fn delete_list_frees_blocks_and_survives_crash() {
    let mut lld = small_lld();
    let l1 = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let l2 = lld
        .new_list(PredList::After(l1), ListHints::default())
        .unwrap();
    let keep = lld.new_block(l2, Pred::Start).unwrap();
    lld.write(keep, &pattern(4096, 11)).unwrap();
    let mut pred = Pred::Start;
    for i in 0..10u8 {
        let bid = lld.new_block(l1, pred).unwrap();
        lld.write(bid, &pattern(4096, i)).unwrap();
        pred = Pred::After(bid);
    }
    let free_before = lld.free_bytes();
    lld.delete_list(l1, None).unwrap();
    assert_eq!(lld.free_bytes(), free_before + 10 * 4096);
    assert_eq!(lld.list_blocks(l1), Err(LdError::UnknownList(l1)));
    lld.flush(FailureSet::PowerFailure).unwrap();

    let mut lld = crash_and_reopen(lld);
    assert_eq!(lld.list_blocks(l1), Err(LdError::UnknownList(l1)));
    assert_eq!(lld.list_blocks(l2).unwrap(), vec![keep]);
    let mut buf = vec![0u8; 4096];
    lld.read(keep, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 11));
}

#[test]
fn move_sublist_and_move_list_are_recoverable() {
    let mut lld = small_lld();
    let l1 = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let l2 = lld
        .new_list(PredList::After(l1), ListHints::default())
        .unwrap();
    let mut bids = Vec::new();
    let mut pred = Pred::Start;
    for i in 0..5u8 {
        let bid = lld.new_block(l1, pred).unwrap();
        lld.write(bid, &pattern(512, i)).unwrap();
        bids.push(bid);
        pred = Pred::After(bid);
    }
    lld.move_sublist(l1, bids[1], bids[3], l2, Pred::Start)
        .unwrap();
    lld.move_list(l2, PredList::Start).unwrap();
    assert_eq!(lld.list_blocks(l1).unwrap(), vec![bids[0], bids[4]]);
    assert_eq!(
        lld.list_blocks(l2).unwrap(),
        vec![bids[1], bids[2], bids[3]]
    );
    assert_eq!(lld.list_of_lists(), vec![l2, l1]);
    lld.flush(FailureSet::PowerFailure).unwrap();

    let mut lld = crash_and_reopen(lld);
    assert_eq!(lld.list_blocks(l1).unwrap(), vec![bids[0], bids[4]]);
    assert_eq!(
        lld.list_blocks(l2).unwrap(),
        vec![bids[1], bids[2], bids[3]]
    );
    assert_eq!(lld.list_of_lists(), vec![l2, l1]);
    // Ownership moved: deleting via the new list works.
    lld.delete_block(bids[2], l2, Some(bids[1])).unwrap();
}

#[test]
fn reorganizer_clusters_a_fragmented_list() {
    let disk = SimDisk::hp_c3010_with_capacity(8 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let a = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let b = lld
        .new_list(PredList::After(a), ListHints::default())
        .unwrap();
    // Interleave writes of two lists so both end up fragmented.
    let mut pa = Pred::Start;
    let mut pb = Pred::Start;
    let mut bids_a = Vec::new();
    for i in 0..40u8 {
        let ba = lld.new_block(a, pa).unwrap();
        lld.write(ba, &pattern(4096, i)).unwrap();
        pa = Pred::After(ba);
        bids_a.push(ba);
        let bb = lld.new_block(b, pb).unwrap();
        lld.write(bb, &pattern(4096, i ^ 0xFF)).unwrap();
        pb = Pred::After(bb);
    }
    lld.seal().unwrap();
    let segs_before: std::collections::HashSet<_> = bids_a
        .iter()
        .filter_map(|&bid| lld.block_segment(bid))
        .collect();
    let (rewritten, _) = lld.reorganize(2, 0).unwrap();
    assert_eq!(rewritten, 2);
    lld.seal().unwrap();
    let segs_after: std::collections::HashSet<_> = bids_a
        .iter()
        .filter_map(|&bid| lld.block_segment(bid))
        .collect();
    assert!(
        segs_after.len() < segs_before.len(),
        "reorganizer should reduce the number of segments a list spans \
         ({} -> {})",
        segs_before.len(),
        segs_after.len()
    );
    // Data intact.
    for (i, bid) in bids_a.iter().enumerate() {
        let mut buf = vec![0u8; 4096];
        lld.read(*bid, &mut buf).unwrap();
        assert_eq!(buf, pattern(4096, i as u8));
    }
}

#[test]
fn greedy_and_cost_benefit_policies_both_work() {
    for policy in [CleaningPolicy::Greedy, CleaningPolicy::CostBenefit] {
        let disk = SimDisk::hp_c3010_with_capacity(2 << 20);
        let config = LldConfig {
            cleaning_policy: policy,
            ..LldConfig::small_for_tests()
        };
        let mut lld = Lld::format(disk, config).unwrap();
        let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
        let mut bids = Vec::new();
        let mut pred = Pred::Start;
        for _ in 0..200 {
            let bid = lld.new_block(lid, pred).unwrap();
            bids.push(bid);
            pred = Pred::After(bid);
        }
        for round in 0..5u8 {
            for (i, bid) in bids.iter().enumerate() {
                lld.write(*bid, &pattern(4096, round ^ i as u8)).unwrap();
            }
        }
        for (i, bid) in bids.iter().enumerate() {
            let mut buf = vec![0u8; 4096];
            lld.read(*bid, &mut buf).unwrap();
            assert_eq!(buf, pattern(4096, 4u8 ^ i as u8), "{policy:?} block {i}");
        }
    }
}

#[test]
fn reservations_guarantee_allocation() {
    let disk = SimDisk::hp_c3010_with_capacity(1 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let free = lld.free_bytes();
    let r = lld.reserve(free).unwrap();
    assert_eq!(lld.new_block(lid, Pred::Start), Err(LdError::NoSpace));
    lld.draw_reservation(r, 4096).unwrap();
    assert!(lld.new_block(lid, Pred::Start).is_ok());
    lld.cancel_reservation(r).unwrap();
    assert!(lld.free_bytes() > 0);
}

#[test]
fn recovery_time_scales_with_summaries_not_data() {
    // Write a lot of data, crash, and verify recovery reads only the
    // summary regions (paper: recovery is "at least one order of magnitude
    // faster than in Loge, since LLD only reads the segment summaries").
    let disk = SimDisk::hp_c3010_with_capacity(16 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut pred = Pred::Start;
    for i in 0..400u16 {
        let bid = lld.new_block(lid, pred).unwrap();
        lld.write(bid, &pattern(4096, i as u8)).unwrap();
        pred = Pred::After(bid);
    }
    lld.flush(FailureSet::PowerFailure).unwrap();

    let config = lld.config().clone();
    let mut disk = lld.into_disk();
    disk.crash_now();
    disk.revive();
    disk.reset_stats();
    let lld = Lld::open(disk, config).unwrap();
    let segments = u64::from(lld.layout().segments);
    assert_eq!(lld.stats().recovery_summaries_read, segments);
    let sectors_read = lld.disk().stats().sectors_read;
    let summary_sectors = segments * (lld.layout().summary_bytes as u64 / 512);
    assert!(
        sectors_read <= summary_sectors + 16,
        "recovery read {sectors_read} sectors; summaries are only {summary_sectors}"
    );
}

#[test]
fn stats_track_writes_and_lists() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let bid = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(bid, &pattern(4096, 1)).unwrap();
    let s = lld.stats();
    assert_eq!(s.block_writes, 1);
    assert_eq!(s.user_bytes_written, 4096);
    assert!(s.list_records_logged >= 2);
    assert!(s.records_logged > s.list_records_logged);
}

#[test]
fn maintain_lists_false_skips_list_logging() {
    let disk = SimDisk::hp_c3010_with_capacity(4 << 20);
    let config = LldConfig {
        maintain_lists: false,
        ..LldConfig::small_for_tests()
    };
    let mut lld = Lld::format(disk, config).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    assert_eq!(lld.stats().list_records_logged, 0);
    // The in-memory structure still behaves.
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a, b]);
    lld.delete_block(b, lid, Some(a)).unwrap();
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a]);
}

#[test]
fn shutdown_without_free_segments_still_recovers_by_sweep() {
    // Fill the disk almost completely so the checkpoint cannot be written.
    let disk = SimDisk::hp_c3010_with_capacity(1 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut pred = Pred::Start;
    let mut bids = Vec::new();
    while let Ok(bid) = lld.new_block(lid, pred) {
        lld.write(bid, &pattern(4096, bids.len() as u8)).unwrap();
        pred = Pred::After(bid);
        bids.push(bid);
    }
    lld.shutdown().unwrap();
    let config = lld.config().clone();
    let mut lld = Lld::open(lld.into_disk(), config).unwrap();
    assert_eq!(lld.list_blocks(lid).unwrap(), bids);
}

#[test]
fn swap_contents_swaps_and_survives_crash() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    lld.write(a, &pattern(3000, 1)).unwrap();
    lld.write(b, &pattern(500, 2)).unwrap();
    lld.swap_contents(a, b).unwrap();

    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(a, &mut buf).unwrap(), 500);
    assert_eq!(&buf[..500], &pattern(500, 2)[..]);
    assert_eq!(lld.read(b, &mut buf).unwrap(), 3000);
    assert_eq!(&buf[..3000], &pattern(3000, 1)[..]);
    // List order is untouched; only contents traded places.
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a, b]);

    lld.flush(FailureSet::PowerFailure).unwrap();
    let mut lld = crash_and_reopen(lld);
    assert_eq!(lld.read(a, &mut buf).unwrap(), 500);
    assert_eq!(&buf[..500], &pattern(500, 2)[..]);
    assert_eq!(lld.read(b, &mut buf).unwrap(), 3000);
    assert_eq!(&buf[..3000], &pattern(3000, 1)[..]);
}

#[test]
fn swap_contents_validates_size_classes() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let big = lld.new_block(lid, Pred::Start).unwrap();
    let small = lld.new_block_with_size(lid, Pred::After(big), 64).unwrap();
    lld.write(big, &pattern(2000, 1)).unwrap();
    lld.write(small, &pattern(64, 2)).unwrap();
    // 2000 bytes cannot move into a 64-byte block.
    assert_eq!(
        lld.swap_contents(big, small),
        Err(LdError::BlockTooLarge { got: 2000, max: 64 })
    );
    // Shrink the big block's content; now the swap is legal.
    lld.write(big, &pattern(60, 3)).unwrap();
    lld.swap_contents(big, small).unwrap();
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(small, &mut buf).unwrap(), 60);
    assert_eq!(&buf[..60], &pattern(60, 3)[..]);
}

#[test]
fn swap_contents_survives_cleaning_of_the_swap_record() {
    // The Swap record redirects mappings without a WriteBlock; cleaning
    // the segment holding it must forward the blocks so recovery still
    // sees the swapped state.
    let disk = SimDisk::hp_c3010_with_capacity(2 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    let b = lld.new_block(lid, Pred::After(a)).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    lld.write(b, &pattern(4096, 2)).unwrap();
    lld.swap_contents(a, b).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();
    // Grind the log so every early segment (including the one holding the
    // Swap record) gets cleaned.
    let mut filler = Vec::new();
    let mut pred = Pred::After(b);
    for _ in 0..128 {
        let f = lld.new_block(lid, pred).unwrap();
        filler.push(f);
        pred = Pred::After(f);
    }
    for round in 0..8u8 {
        for f in &filler {
            lld.write(*f, &pattern(4096, 0xF0 ^ round)).unwrap();
        }
    }
    assert!(lld.stats().segments_cleaned > 0);
    lld.flush(FailureSet::PowerFailure).unwrap();

    let mut lld = crash_and_reopen(lld);
    let mut buf = vec![0u8; 4096];
    lld.read(a, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 2), "a must still hold b's old bytes");
    lld.read(b, &mut buf).unwrap();
    assert_eq!(buf, pattern(4096, 1), "b must still hold a's old bytes");
}

#[test]
fn block_at_offset_addressing() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut bids = Vec::new();
    let mut pred = Pred::Start;
    for i in 0..10u8 {
        let b = lld.new_block(lid, pred).unwrap();
        lld.write(b, &pattern(100, i)).unwrap();
        bids.push(b);
        pred = Pred::After(b);
    }
    for (i, expected) in bids.iter().enumerate() {
        assert_eq!(lld.block_at(lid, i as u64).unwrap(), *expected);
    }
    assert_eq!(
        lld.block_at(lid, 10),
        Err(LdError::IndexOutOfRange { lid, index: 10 })
    );
    // Offsets shift under deletion, as arrays do.
    lld.delete_block(bids[0], lid, None).unwrap();
    assert_eq!(lld.block_at(lid, 0).unwrap(), bids[1]);
}

#[test]
fn nvram_absorbs_below_threshold_flushes() {
    let disk = SimDisk::hp_c3010_with_capacity(8 << 20).with_nvram(512 << 10);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    let disk_writes_before = lld.disk().stats().write_ops;
    lld.flush(FailureSet::PowerFailure).unwrap();
    // Absorbed by NVRAM: no disk write, no partial segment.
    assert_eq!(lld.stats().nvram_saves, 1);
    assert_eq!(lld.stats().partial_segment_writes, 0);
    assert_eq!(lld.disk().stats().write_ops, disk_writes_before);

    // Crash: the flushed state must come back from the NVRAM tail.
    let mut lld = crash_and_reopen(lld);
    assert!(lld.stats().recovery_nvram_applied);
    assert_eq!(lld.list_blocks(lid).unwrap(), vec![a]);
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(a, &mut buf).unwrap(), 4096);
    assert_eq!(buf, pattern(4096, 1));

    // The materialized state is itself durable: crash again without any
    // further writes and everything is still there.
    let mut lld = crash_and_reopen(lld);
    assert!(
        !lld.stats().recovery_nvram_applied,
        "the image was invalidated after materialization"
    );
    assert_eq!(lld.read(a, &mut buf).unwrap(), 4096);
    assert_eq!(buf, pattern(4096, 1));
}

#[test]
fn nvram_image_is_superseded_by_the_seal() {
    let disk = SimDisk::hp_c3010_with_capacity(8 << 20).with_nvram(512 << 10);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();
    assert_eq!(lld.stats().nvram_saves, 1);
    // Fill the segment so it seals (which invalidates the image).
    let mut pred = Pred::After(a);
    for i in 0..20u8 {
        let b = lld.new_block(lid, pred).unwrap();
        lld.write(b, &pattern(4096, i)).unwrap();
        pred = Pred::After(b);
    }
    assert!(lld.stats().segments_sealed > 0);
    let mut lld = crash_and_reopen(lld);
    assert!(
        !lld.stats().recovery_nvram_applied,
        "stale image must not apply"
    );
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(a, &mut buf).unwrap(), 4096);
    assert_eq!(buf, pattern(4096, 1));
}

#[test]
fn repeated_nvram_flushes_keep_only_the_newest_tail() {
    let disk = SimDisk::hp_c3010_with_capacity(8 << 20).with_nvram(512 << 10);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    for round in 0..5u8 {
        lld.write(a, &pattern(3000, round)).unwrap();
        lld.flush(FailureSet::PowerFailure).unwrap();
    }
    assert_eq!(lld.stats().nvram_saves, 5);
    assert_eq!(lld.stats().partial_segment_writes, 0);
    let mut lld = crash_and_reopen(lld);
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(a, &mut buf).unwrap(), 3000);
    assert_eq!(&buf[..3000], &pattern(3000, 4)[..], "newest flush wins");
}

#[test]
fn without_nvram_flag_partial_writes_return() {
    let disk = SimDisk::hp_c3010_with_capacity(8 << 20).with_nvram(512 << 10);
    let config = LldConfig {
        use_nvram: false,
        ..LldConfig::small_for_tests()
    };
    let mut lld = Lld::format(disk, config).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(4096, 1)).unwrap();
    lld.flush(FailureSet::PowerFailure).unwrap();
    assert_eq!(lld.stats().nvram_saves, 0);
    assert_eq!(lld.stats().partial_segment_writes, 1);
}

#[test]
fn concurrent_arus_commit_independently() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();

    // Two interleaved units; only the first ends before the crash.
    let t1 = lld.begin_aru_id().unwrap();
    let t2 = lld.begin_aru_id().unwrap();

    lld.activate_aru(Some(t1)).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(1000, 1)).unwrap();

    lld.activate_aru(Some(t2)).unwrap();
    let b = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(b, &pattern(1000, 2)).unwrap();

    lld.activate_aru(Some(t1)).unwrap();
    lld.write(a, &pattern(1000, 3)).unwrap();
    lld.end_aru_id(t1).unwrap();
    lld.activate_aru(None).unwrap();

    // A plain committed operation lands between t1's end and t2's records;
    // with per-record ids it must not accidentally commit t2.
    let c = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(c, &pattern(1000, 4)).unwrap();

    lld.flush(FailureSet::PowerFailure).unwrap();
    // Crash with t2 still open: its operations must vanish; t1's and the
    // plain op survive.
    let mut lld = crash_and_reopen(lld);
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(a, &mut buf).unwrap(), 1000);
    assert_eq!(&buf[..1000], &pattern(1000, 3)[..], "t1 committed fully");
    assert_eq!(lld.read(c, &mut buf).unwrap(), 1000);
    assert_eq!(&buf[..1000], &pattern(1000, 4)[..], "plain op survives");
    assert_eq!(
        lld.read(b, &mut buf),
        Err(LdError::UnknownBlock(b)),
        "t2 never ended; its block must not exist"
    );
    assert!(lld.stats().recovery_records_discarded > 0);
}

#[test]
fn concurrent_aru_bookkeeping_errors() {
    let mut lld = small_lld();
    let t = lld.begin_aru_id().unwrap();
    lld.end_aru_id(t).unwrap();
    assert_eq!(lld.end_aru_id(t), Err(LdError::NoAruOpen), "double end");
    assert_eq!(
        lld.activate_aru(Some(t)),
        Err(LdError::NoAruOpen),
        "activating a closed unit"
    );
    // The serial Table 1 interface still refuses nesting.
    lld.begin_aru().unwrap();
    assert_eq!(lld.begin_aru(), Err(LdError::AruAlreadyOpen));
    lld.end_aru().unwrap();
}

#[test]
fn shutdown_commits_open_concurrent_arus() {
    let mut lld = small_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let t = lld.begin_aru_id().unwrap();
    lld.activate_aru(Some(t)).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(500, 7)).unwrap();
    lld.shutdown().unwrap();

    let config = lld.config().clone();
    let mut lld = Lld::open(lld.into_disk(), config).unwrap();
    let mut buf = vec![0u8; 4096];
    assert_eq!(lld.read(a, &mut buf).unwrap(), 500);
    assert_eq!(&buf[..500], &pattern(500, 7)[..]);
}

#[test]
fn reorganize_hot_clusters_frequently_accessed_blocks() {
    let disk = SimDisk::hp_c3010_with_capacity(16 << 20);
    let config = LldConfig {
        segment_bytes: 128 << 10,
        ..LldConfig::small_for_tests()
    };
    let mut lld = Lld::format(disk, config).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    // Spread 600 blocks over many segments.
    let mut bids = Vec::new();
    let mut pred = Pred::Start;
    for i in 0..600u32 {
        let b = lld.new_block(lid, pred).unwrap();
        lld.write(b, &pattern(4096, i as u8)).unwrap();
        bids.push(b);
        pred = Pred::After(b);
    }
    lld.seal().unwrap();
    // Heat up a scattered 5%: every 20th block, read repeatedly.
    let hot: Vec<_> = bids.iter().copied().step_by(20).collect();
    let mut buf = vec![0u8; 4096];
    for _ in 0..10 {
        for b in &hot {
            lld.read(*b, &mut buf).unwrap();
        }
    }
    let spread = |lld: &Lld<SimDisk>| {
        hot.iter()
            .filter_map(|&b| lld.block_segment(b))
            .collect::<std::collections::HashSet<_>>()
            .len()
    };
    let before = spread(&lld);
    let moved = lld.reorganize_hot(64).unwrap();
    assert!(
        moved >= hot.len() as u32,
        "all hot blocks moved (moved {moved})"
    );
    let after = spread(&lld);
    assert!(
        after < before && after <= 2,
        "hot blocks should collapse into one or two segments ({before} -> {after})"
    );
    // Data intact (including blocks that were not moved).
    for (i, b) in bids.iter().enumerate() {
        lld.read(*b, &mut buf).unwrap();
        assert_eq!(buf, pattern(4096, i as u8), "block {i}");
    }
    // And the rearranged state is recoverable.
    lld.flush(FailureSet::PowerFailure).unwrap();
    let mut lld = crash_and_reopen(lld);
    for (i, b) in bids.iter().enumerate() {
        lld.read(*b, &mut buf).unwrap();
        assert_eq!(buf, pattern(4096, i as u8), "recovered block {i}");
    }
}
