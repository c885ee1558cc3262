//! Tests of the full LLD stack over the disk simulator.
//!
//! Crash tests live on the crash harness (`tests/harness`), which checks
//! every crash image against `ModelLd`. The four here crash through the
//! write recorder instead, because the model cannot express them, they
//! measure the recovery itself, or the harness's per-operation model
//! copies would make them slow: the two concurrent-ARU tests (the model
//! has no `begin_aru_id`/`activate_aru`) recover every prefix of their
//! recording, `recovery_time_scales_with_summaries_not_data` counts what
//! one recovery reads, and `checkpoint_larger_than_the_free_pool_is_skipped`
//! shuts down 8,000 blocks.

use ld_core::{Bid, FailureSet, LdError, ListHints, LogicalDisk, Pred, PredList};
use simdisk::{BlockDev, SimDisk};

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

/// A formatted 2 MB LLD whose disk records every write from now on.
fn recording_lld() -> Lld<SimDisk> {
    let disk = SimDisk::hp_c3010_with_capacity(2 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    lld.disk_mut().record_writes();
    lld
}

/// Recovers the crash image at every prefix of `lld`'s recording, in
/// order, and hands each recovery to `check`, with whether it is the
/// recording's end.
fn every_crash(mut lld: Lld<SimDisk>, mut check: impl FnMut(bool, &mut Lld<SimDisk>)) {
    let config = lld.config().clone();
    let mut images = lld.disk_mut().take_recording().unwrap();
    for n in 0..=images.writes() {
        images.advance_to(n);
        let mut lld = Lld::open(images.disk(), config.clone()).unwrap();
        check(n == images.writes(), &mut lld);
    }
}

/// `bid`'s contents, or `None` if it is unknown.
fn contents(lld: &mut Lld<SimDisk>, bid: Bid) -> Option<Vec<u8>> {
    let mut buf = vec![0u8; 4096];
    match lld.read(bid, &mut buf) {
        Ok(n) => Some(buf[..n].to_vec()),
        Err(LdError::UnknownBlock(_)) => None,
        Err(e) => panic!("read {bid}: {e}"),
    }
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
fn format_leaves_the_medium_holding_no_more_than_its_header() {
    // Format zeroes the header and one sector of every summary; zeros
    // written to a never-written medium must not make it hold memory. The
    // bound is what a disk holding only a non-zero header holds.
    let capacity = 24 << 20;
    let lld = Lld::format(
        SimDisk::hp_c3010_with_capacity(capacity),
        LldConfig::small_for_tests(),
    )
    .unwrap();
    assert!(lld.layout().segments > 300);
    let mut header_only = SimDisk::hp_c3010_with_capacity(capacity);
    let header = vec![0xFFu8; crate::layout::HEADER_SECTORS as usize * simdisk::SECTOR_SIZE];
    header_only.write_sectors(0, &header).unwrap();
    assert!(
        lld.disk().resident_bytes() <= header_only.resident_bytes(),
        "a fresh format holds {} bytes",
        lld.disk().resident_bytes()
    );
}

/// The checkpoint payload of a cleanly shut down image, gathered from the
/// segments its header lists, after checking it against the header's
/// checksum.
fn checkpoint_payload(image: &[u8], layout: &crate::Layout) -> Vec<u8> {
    use ld_core::wire::{fnv1a64, le_u32, le_u64};
    let nsegs = le_u32(image, 24) as usize;
    let mut payload = Vec::new();
    for i in 0..nsegs {
        let base = layout.segment_base(le_u32(image, 28 + 4 * i)) as usize * simdisk::SECTOR_SIZE;
        payload.extend_from_slice(&image[base..base + layout.segment_bytes]);
    }
    payload.truncate(le_u64(image, 8) as usize);
    assert_eq!(fnv1a64(&payload), le_u64(image, 16), "header checksum");
    payload
}

// A change to any of these is a change of the on-disk checkpoint format.
const GOLDEN_PLAIN_LEN: usize = 3186;
const GOLDEN_PLAIN_FNV: u64 = 0x27f5_28a0_11cd_51c4;
// The remap workload's scan retires a segment whose summary holds a bad
// sector, so scrub re-logs the whole state (every list and block id, where
// each on-disk copy lies, the bad sectors and quarantined segments); those
// records move the timestamps and summary seqs the checkpoint carries (the
// length stays 7135).
const GOLDEN_REMAP_LEN: usize = 7135;
const GOLDEN_REMAP_FNV: u64 = 0x42b3_f121_db60_7f8f;

/// Pins the checkpoint format: the payload length and FNV-1a of two fixed
/// workloads, one reaching every hint bit, compressed blocks and deleted
/// blocks, the other the bad-block remap table.
#[test]
fn checkpoint_payload_matches_golden_checksum() {
    let mut lld = small_lld();
    let plain = lld
        .new_list(
            PredList::Start,
            ListHints {
                cluster: true,
                compress: false,
                interlist_cluster: false,
            },
        )
        .unwrap();
    let packed = lld
        .new_list(PredList::After(plain), ListHints::compressed())
        .unwrap();
    let mut bids = Vec::new();
    for i in 0..24u8 {
        let (lid, data) = if i % 3 == 0 {
            (packed, vec![i; 4096])
        } else {
            (plain, pattern(1000 + 100 * usize::from(i), i))
        };
        let bid = lld.new_block(lid, Pred::Start).unwrap();
        lld.write(bid, &data).unwrap();
        bids.push((bid, lid));
    }
    for &(bid, lid) in bids.iter().step_by(5) {
        lld.delete_block(bid, lid, None).unwrap();
    }
    lld.shutdown().unwrap();
    let layout = *lld.layout();
    let payload = checkpoint_payload(&lld.into_disk().image_bytes(), &layout);
    assert_eq!(
        (payload.len(), ld_core::wire::fnv1a64(&payload)),
        (GOLDEN_PLAIN_LEN, GOLDEN_PLAIN_FNV)
    );

    let config = LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        read_retries: 16,
        cpu: crate::CpuModel::free(),
        ..LldConfig::default()
    };
    let mut lld = Lld::format(SimDisk::hp_c3010_with_capacity(16 << 20), config).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    for i in 0..40u8 {
        let bid = lld.new_block(lid, Pred::Start).unwrap();
        lld.write(bid, &pattern(4096, i)).unwrap();
    }
    lld.flush(FailureSet::PowerFailure).unwrap();
    lld.disk_mut().set_faults(simdisk::FaultConfig {
        seed: 8,
        latent_ppm: 3_000,
        ..simdisk::FaultConfig::default()
    });
    lld.media_scan().unwrap();
    assert!(!lld.bad_sector_table().is_empty());
    assert!(lld.stats().retire_records_relogged > 0);
    lld.shutdown().unwrap();
    let layout = *lld.layout();
    let payload = checkpoint_payload(&lld.into_disk().image_bytes(), &layout);
    assert_eq!(
        (payload.len(), ld_core::wire::fnv1a64(&payload)),
        (GOLDEN_REMAP_LEN, GOLDEN_REMAP_FNV)
    );
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
    lld.disk_mut().record_writes();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut pred = Pred::Start;
    for i in 0..400u16 {
        let bid = lld.new_block(lid, pred).unwrap();
        lld.write(bid, &pattern(4096, i as u8)).unwrap();
        pred = Pred::After(bid);
    }
    lld.flush(FailureSet::PowerFailure).unwrap();

    // The crash image boots a disk with fresh stats.
    let mut images = lld.disk_mut().take_recording().unwrap();
    images.advance_to(images.writes());
    let lld = Lld::open(images.disk(), lld.config().clone()).unwrap();
    let segments = u64::from(lld.layout().segments);
    assert_eq!(lld.stats().recovery_summaries_read, segments);
    let sectors_read = lld.disk().stats().sectors_read;
    let summary_sectors = segments * (lld.layout().summary_bytes as u64 / 512);
    assert!(
        sectors_read <= summary_sectors + 16,
        "recovery read {sectors_read} sectors; summaries are only {summary_sectors}"
    );
}

/// A shutdown whose checkpoint outgrows the free pool writes none: 8,000
/// blocks of one byte, never written, take 45 payload bytes each (360 KB,
/// more than the free segments of a 512 KB disk hold) but only a few
/// summary bytes. The header stays invalid, and a crash before, inside or
/// at the end of the shutdown's writes sweeps to the flushed list.
#[test]
fn checkpoint_larger_than_the_free_pool_is_skipped() {
    let disk = SimDisk::hp_c3010_with_capacity(512 << 10);
    let config = LldConfig {
        summary_bytes: 32 << 10,
        cleaning_reserve_segments: 2,
        ..LldConfig::small_for_tests()
    };
    let mut lld = Lld::format(disk, config).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut bids: Vec<Bid> = (0..8_000)
        .map(|_| lld.new_block_with_size(lid, Pred::Start, 1).unwrap())
        .collect();
    bids.reverse();
    lld.flush(FailureSet::PowerFailure).unwrap();
    let free = lld.free_segments() as usize * lld.layout().segment_bytes;
    assert!(
        bids.len() * 45 > free,
        "the payload must outgrow {free} bytes"
    );
    lld.disk_mut().record_writes();
    lld.shutdown().unwrap();
    let layout = *lld.layout();
    let image = lld.disk().image_bytes();
    assert!(matches!(
        crate::checkpoint::peek_image(&image, &layout),
        crate::checkpoint::CheckpointPeek::Absent
    ));
    let config = lld.config().clone();
    let mut images = lld.disk_mut().take_recording().unwrap();
    let writes = images.writes();
    assert!(writes > 0, "the shutdown seals the open segment");
    for n in (0..=4).map(|q| writes * q / 4) {
        images.advance_to(n);
        let mut lld = Lld::open(images.disk(), config.clone()).unwrap();
        assert!(!lld.stats().recovered_from_checkpoint, "prefix {n}");
        assert_eq!(lld.list_of_lists(), vec![lid]);
        assert_eq!(lld.list_blocks(lid).unwrap(), bids, "prefix {n}");
        assert!(bids.iter().all(|&b| lld.block_len(b) == Ok(0)));
    }
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

/// Every crash recovers t1 and the plain operation all or nothing, t1
/// first, and never t2.
#[test]
fn concurrent_arus_commit_independently() {
    let mut lld = recording_lld();
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
    // plain op survive once flushed.
    every_crash(lld, |end, lld| {
        let (got_a, got_c) = (contents(lld, a), contents(lld, c));
        assert!(
            got_a.is_none() || got_a == Some(pattern(1000, 3)),
            "t1 is atomic"
        );
        assert!(got_c.is_none() || got_c == Some(pattern(1000, 4)));
        assert!(got_c.is_none() || got_a.is_some(), "t1 ended first");
        assert_eq!(contents(lld, b), None, "t2 never ended");
        if end {
            assert!(got_a.is_some() && got_c.is_some());
            assert!(lld.stats().recovery_records_discarded > 0);
        }
    });
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

/// Every crash inside the shutdown recovers the unit all or nothing; the
/// checkpoint holds it.
#[test]
fn shutdown_commits_open_concurrent_arus() {
    let mut lld = recording_lld();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let t = lld.begin_aru_id().unwrap();
    lld.activate_aru(Some(t)).unwrap();
    let a = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(a, &pattern(500, 7)).unwrap();
    lld.shutdown().unwrap();
    every_crash(lld, |end, lld| {
        let got = contents(lld, a);
        assert!(got.is_none() || got == Some(pattern(500, 7)));
        if end {
            assert!(got.is_some() && lld.stats().recovered_from_checkpoint);
        }
    });
}

/// The cleaner forwards live blocks in list order (§3.5 clustering): by
/// list-of-lists position, then by position within the list — not by
/// block number. The rank memo must follow `move_list` too.
#[test]
fn cleaning_forwards_blocks_in_list_order() {
    let mut lld = small_lld();
    // `b` is created second but put in front: list-of-lists order is the
    // reverse of allocation order.
    let a = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let b = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    assert_eq!(lld.list_of_lists(), vec![b, a]);
    // Interleaved allocation and writes: block numbers alternate lists.
    let (mut on_a, mut on_b) = (Vec::new(), Vec::new());
    for i in 0..6u8 {
        for (lid, blocks) in [(a, &mut on_a), (b, &mut on_b)] {
            let pred = blocks.last().map_or(Pred::Start, |&p| Pred::After(p));
            let bid = lld.new_block(lid, pred).unwrap();
            lld.write(bid, &pattern(4096, i)).unwrap();
            blocks.push(bid);
        }
    }
    // Forwarded offsets, in the given block order.
    let offsets = |lld: &Lld<SimDisk>, order: &[Bid]| -> Vec<u32> {
        order
            .iter()
            .map(|b| {
                let e = lld.map.get(b.0).unwrap();
                assert_eq!(e.seg, crate::OPEN_SEG, "block {b} was forwarded");
                e.offset
            })
            .collect()
    };
    let increasing = |v: &[u32]| v.windows(2).all(|w| w[0] < w[1]);

    // Twelve 4 KB blocks fill the segment only partly, so it is a victim.
    lld.seal().unwrap();
    assert_eq!(lld.clean(1).unwrap(), 1);
    let b_then_a: Vec<Bid> = on_b.iter().chain(&on_a).copied().collect();
    assert!(increasing(&offsets(&lld, &b_then_a)), "{b_then_a:?}");

    // Reorder the lists; the next cleaning must follow the new order.
    lld.move_list(b, PredList::After(a)).unwrap();
    lld.seal().unwrap();
    assert_eq!(lld.clean(1).unwrap(), 1);
    let a_then_b: Vec<Bid> = on_a.iter().chain(&on_b).copied().collect();
    assert!(increasing(&offsets(&lld, &a_then_b)), "{a_then_b:?}");

    for (i, bid) in on_a.iter().enumerate() {
        let mut buf = vec![0u8; 4096];
        lld.read(*bid, &mut buf).unwrap();
        assert_eq!(buf, pattern(4096, i as u8));
    }
}

/// A structural operation drops the rank memo *after* its `ensure_room`:
/// the seal there can run the cleaner, which fills the memo from the lists
/// as they were before the operation. Dropped any earlier, the memo would
/// miss the new block and forward it out of list order.
#[test]
fn rank_memo_is_dropped_after_the_seal_inside_new_block() {
    let disk = SimDisk::hp_c3010_with_capacity(2 << 20);
    let mut lld = Lld::format(disk, LldConfig::small_for_tests()).unwrap();
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let tiny = lld.new_block_with_size(lid, Pred::Start, 16).unwrap();
    let mut bids = Vec::new();
    let mut pred = Pred::After(tiny);
    for _ in 0..128 {
        let b = lld.new_block(lid, pred).unwrap();
        bids.push(b);
        pred = Pred::After(b);
    }
    // Overwrite until the next seal will clean: the pool, after that seal
    // takes a segment and releases the scratch and pending ones, is at or
    // below the reserve.
    let reserve = lld.config().cleaning_reserve_segments;
    let cleans_next = |lld: &Lld<SimDisk>| {
        let released = u32::from(lld.scratch.is_some()) + lld.pending_free.len() as u32;
        lld.usage.free_count() + released <= reserve + 1
    };
    let primed = (0..20u8).any(|round| {
        bids.iter().any(|&b| {
            lld.write(b, &pattern(4096, round)).unwrap();
            cleans_next(&lld)
        })
    });
    assert!(primed, "the overwrites bring the pool down to the reserve");
    // Fill the open summary with one-record writes, so the new block's
    // own `ensure_room` must seal.
    let mut i = 0u8;
    while lld.open.has_room(0, 3) {
        lld.write(tiny, &[i]).unwrap();
        i = i.wrapping_add(1);
    }
    assert!(cleans_next(&lld), "no seal yet");
    let runs = lld.stats().cleaner_runs;
    let x = lld.new_block(lid, Pred::After(tiny)).unwrap();
    assert!(
        lld.stats().cleaner_runs > runs,
        "the cleaner ran inside new_block"
    );

    // `x` now precedes `bids` on the list. Put it in one segment with the
    // next two blocks and clean until that segment is the victim; debug
    // builds check its forwarding order against a walk of the list.
    let (b0, b1) = (bids[0], bids[1]);
    for b in [x, b0, b1] {
        lld.write(b, &pattern(4096, 99)).unwrap();
    }
    lld.seal().unwrap();
    let victim = lld.map.get(x.0).unwrap().seg;
    let at = |lld: &Lld<SimDisk>, b: Bid| {
        let e = lld.map.get(b.0).unwrap();
        (e.seg, e.offset)
    };
    for _ in 0..64 {
        if at(&lld, x).0 != victim {
            break;
        }
        lld.clean(1).unwrap();
    }
    let (x_at, b0_at, b1_at) = (at(&lld, x), at(&lld, b0), at(&lld, b1));
    assert_ne!(x_at.0, victim, "the segment was cleaned");
    // Unless a seal fell between them, the three share a segment.
    if x_at.0 == b0_at.0 && b0_at.0 == b1_at.0 {
        assert!(x_at.1 < b0_at.1 && b0_at.1 < b1_at.1);
    }
}

/// The in-place read against the staged read it replaced.
mod staged_read {
    use proptest::prelude::*;

    use super::*;
    use simdisk::BlockDev;

    use crate::{CpuModel, NO_SEG, OPEN_SEG};

    /// `read` with every stored copy staged through a vector, as it was before
    /// uncompressed on-disk copies were read in place: the open buffer's bytes
    /// copied out, or a disk copy read into a buffer of the sectors it touches
    /// and cut down to its bytes, then copied into `buf`.
    fn read_staged(lld: &mut Lld<SimDisk>, bid: Bid, buf: &mut [u8]) -> ld_core::Result<usize> {
        lld.check_up()?;
        lld.charge_cpu(lld.config.cpu.per_command_us);
        let e = *lld.map.get(bid.0).ok_or(LdError::UnknownBlock(bid))?;
        if buf.len() < e.logical_len as usize {
            return Err(LdError::BufferTooSmall {
                need: e.logical_len as usize,
                got: buf.len(),
            });
        }
        lld.stats.block_reads += 1;
        lld.touch(bid.0);
        if e.seg == NO_SEG {
            return Ok(0);
        }
        let stored = if e.stored_len == 0 {
            Vec::new()
        } else if e.seg == OPEN_SEG {
            lld.stats.block_reads_from_memory += 1;
            lld.open.read(e.offset, e.stored_len).to_vec()
        } else {
            let (start, count) =
                lld.layout
                    .data_sector_span(e.seg, e.offset as usize, e.stored_len as usize);
            let mut sectors = vec![0u8; count as usize * simdisk::SECTOR_SIZE];
            if lld.read_span_retrying(start, &mut sectors)?.is_some() {
                lld.stats.unreadable_blocks += 1;
                return Err(LdError::Device(format!(
                    "media fault: block copy at segment {} offset {} unreadable after {} attempts",
                    e.seg,
                    e.offset,
                    lld.config.read_retries.max(1)
                )));
            }
            let begin = e.offset as usize % simdisk::SECTOR_SIZE;
            sectors.truncate(begin + e.stored_len as usize);
            sectors.drain(..begin);
            sectors
        };
        let data = if e.compressed {
            let data = ldcomp::decompress(&stored)
                .map_err(|err| LdError::Device(format!("stored block corrupt: {err}")))?;
            lld.charge_cpu(lld.config.compression_cost.decompress_us(data.len()));
            data
        } else {
            stored
        };
        buf[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }

    /// Where a block's live copy is, as the read path sees it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum CopyKind {
        Unwritten,
        Open,
        Compressed,
        Aligned,
        Unaligned,
    }

    fn copy_kind(lld: &Lld<SimDisk>, bid: Bid) -> CopyKind {
        let e = lld.map.get(bid.0).unwrap();
        let sector = simdisk::SECTOR_SIZE as u32;
        match e.seg {
            NO_SEG => CopyKind::Unwritten,
            OPEN_SEG => CopyKind::Open,
            _ if e.compressed => CopyKind::Compressed,
            _ if e.offset.is_multiple_of(sector) && e.stored_len.is_multiple_of(sector) => {
                CopyKind::Aligned
            }
            _ => CopyKind::Unaligned,
        }
    }

    /// Builds an LLD with every kind of copy: a sealed segment that starts with
    /// an aligned 4 KB copy, then a 100-byte one that leaves the next copy
    /// unaligned, and a compressed one; then the generated writes, sealing
    /// every `seal_every`; then `open_tail` writes left in the open segment and
    /// two blocks never written. Returns it with its blocks.
    fn lld_with_every_copy_kind(
        lens: &[(usize, bool)],
        seal_every: usize,
        open_tail: usize,
    ) -> (Lld<SimDisk>, Vec<Bid>) {
        let config = LldConfig {
            cpu: CpuModel::default(),
            compression_cost: ldcomp::CostModel::default(),
            ..LldConfig::small_for_tests()
        };
        let mut lld = Lld::format(SimDisk::hp_c3010_with_capacity(8 << 20), config).unwrap();
        let plain = lld.new_list(PredList::Start, ListHints::default()).unwrap();
        let packed = lld
            .new_list(PredList::After(plain), ListHints::compressed())
            .unwrap();
        let mut bids = Vec::new();
        let mut write = |lld: &mut Lld<SimDisk>, len: usize, compress: bool| {
            let lid = if compress { packed } else { plain };
            let bid = lld.new_block(lid, Pred::Start).unwrap();
            let seed = bids.len() as u8;
            lld.write(bid, &pattern(len, seed)).unwrap();
            bids.push(bid);
        };
        for (len, compress) in [(4096, false), (100, false), (4096, false), (4096, true)] {
            write(&mut lld, len, compress);
        }
        lld.seal().unwrap();
        for (i, &(len, compress)) in lens.iter().enumerate() {
            write(&mut lld, len, compress);
            if (i + 1) % seal_every == 0 {
                lld.seal().unwrap();
            }
        }
        lld.seal().unwrap();
        for i in 0..open_tail {
            write(&mut lld, 4096 - 512 * (i % 2), i % 3 == 2);
        }
        for _ in 0..2 {
            bids.push(lld.new_block(plain, Pred::Start).unwrap());
        }
        (lld, bids)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Reading a copy in place gives what the staged read gives: the same
        /// result or error, the same bytes, the same stats and the same clock,
        /// read by read, with transient, latent and background read faults
        /// armed.
        #[test]
        fn read_in_place_matches_staged_read(
            lens in proptest::collection::vec(
                (prop_oneof![3 => Just(4096usize), 2 => 1usize..4096], any::<bool>()),
                0..40,
            ),
            seal_every in 1usize..8,
            open_tail in 1usize..4,
            fault_seed in any::<u64>(),
            transient_ppm in 0u32..40_000,
            latent_ppm in 0u32..10_000,
            background_ppm in 0u32..40_000,
            reads in proptest::collection::vec(any::<prop::sample::Index>(), 1..80),
        ) {
            let (mut live, bids) = lld_with_every_copy_kind(&lens, seal_every, open_tail);
            let (mut staged, _) = lld_with_every_copy_kind(&lens, seal_every, open_tail);
            let kinds: std::collections::BTreeSet<CopyKind> =
                bids.iter().map(|&b| copy_kind(&live, b)).collect();
            prop_assert_eq!(kinds.len(), 5, "copy kinds covered: {:?}", kinds);
            let faults = simdisk::FaultConfig {
                seed: fault_seed,
                transient_ppm,
                latent_ppm,
                background_ppm,
                ..simdisk::FaultConfig::default()
            };
            live.disk_mut().set_faults(faults);
            staged.disk_mut().set_faults(faults);
            // Every block once, then the drawn reads.
            let order = (0..bids.len()).chain(reads.iter().map(|r| r.index(bids.len())));
            for (i, k) in order.enumerate() {
                let bid = bids[k];
                let (mut a, mut b) = (vec![0xA5u8; 4096], vec![0x5Au8; 4096]);
                let got = live.read(bid, &mut a);
                let want = read_staged(&mut staged, bid, &mut b);
                prop_assert_eq!(&got, &want, "read {} of {:?} ({:?})", i, bid, copy_kind(&live, bid));
                if let Ok(n) = got {
                    prop_assert_eq!(&a[..n], &b[..n], "bytes of read {}", i);
                }
                prop_assert_eq!(live.stats(), staged.stats(), "stats after read {}", i);
                prop_assert_eq!(live.disk().now_us(), staged.disk().now_us(), "clock after read {}", i);
            }
        }
    }
}
