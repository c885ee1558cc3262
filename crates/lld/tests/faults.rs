//! Unit-level media-fault behaviour of the disk manager: bounded read
//! retry, scrub/relocate/remap, quarantine, and persistence of the bad
//! sector table across checkpoint and recovery.

use ld_core::{LdError, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig};
use simdisk::{FaultConfig, SimDisk};

fn test_config() -> LldConfig {
    LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        read_retries: 16,
        cpu: lld::CpuModel::free(),
        ..LldConfig::default()
    }
}

fn disk() -> SimDisk {
    SimDisk::hp_c3010_with_capacity(16 << 20)
}

fn data(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13) ^ seed)
        .collect()
}

/// Writes `n` 4 KB blocks on one list and flushes; returns their ids and
/// contents.
fn populate(lld: &mut Lld<SimDisk>, n: usize) -> Vec<(ld_core::Bid, Vec<u8>)> {
    let lid = lld.new_list(PredList::Start, ListHints::default()).unwrap();
    let mut blocks = Vec::new();
    for i in 0..n {
        let b = lld.new_block(lid, Pred::Start).unwrap();
        let d = data(4096, i as u8);
        lld.write(b, &d).unwrap();
        blocks.push((b, d));
    }
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    blocks
}

#[test]
fn transient_faults_are_retried_below_the_client() {
    let mut lld = Lld::format(disk(), test_config()).unwrap();
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
    let mut lld = Lld::format(disk(), test_config()).unwrap();
    let blocks = populate(&mut lld, 40);
    lld.disk_mut().set_faults(FaultConfig {
        seed: 4,
        latent_ppm: 20_000, // 2%: some blocks certainly hit.
        ..FaultConfig::default()
    });
    let mut buf = vec![0u8; 4096];
    let mut lost = 0usize;
    for (b, d) in &blocks {
        match lld.read(*b, &mut buf) {
            Ok(n) => assert_eq!(&buf[..n], &d[..], "wrong bytes for {b}"),
            Err(LdError::Device(_)) => lost += 1,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(lost > 0, "2% latent faults over 40 blocks must lose some");
    assert_eq!(lld.stats().unreadable_blocks, lost as u64);
}

#[test]
fn scrub_relocates_remaps_and_quarantines() {
    let mut lld = Lld::format(disk(), test_config()).unwrap();
    let blocks = populate(&mut lld, 40);
    // Delete every other block so live segments carry dead extents —
    // latent sectors under those are remappable, and the surviving
    // neighbours must be relocated off the quarantined segments.
    let lid = lld.list_of_lists()[0];
    for (b, _) in blocks.iter().skip(1).step_by(2) {
        lld.delete_block(*b, lid, None).unwrap();
    }
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    lld.disk_mut().set_faults(FaultConfig {
        seed: 8,
        latent_ppm: 3_000,
        ..FaultConfig::default()
    });
    let (_, remapped, _) = lld.media_scan().expect("media scan");
    assert!(remapped > 0, "the schedule must retire some sectors");
    assert_eq!(lld.bad_sector_table().len() as u64, remapped);
    assert!(
        lld.quarantined_segments() > 0,
        "bad sectors imply quarantine"
    );
    // Surviving blocks: either intact or reported, never silently wrong.
    let mut buf = vec![0u8; 4096];
    for (b, d) in blocks.iter().step_by(2) {
        if let Ok(n) = lld.read(*b, &mut buf) {
            assert_eq!(&buf[..n], &d[..], "wrong bytes for {b}");
        }
    }
    // Still writable: new blocks land outside quarantined segments.
    let b = lld.new_block(lid, Pred::Start).unwrap();
    lld.write(b, &data(4096, 0xEE)).unwrap();
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
}

#[test]
fn bad_sector_table_survives_checkpoint_and_recovery() {
    let mut lld = Lld::format(disk(), test_config()).unwrap();
    let blocks = populate(&mut lld, 40);
    let lid = lld.list_of_lists()[0];
    for (b, _) in blocks.iter().skip(1).step_by(2) {
        lld.delete_block(*b, lid, None).unwrap();
    }
    lld.flush(ld_core::FailureSet::PowerFailure).unwrap();
    lld.disk_mut().set_faults(FaultConfig {
        seed: 8,
        latent_ppm: 3_000,
        ..FaultConfig::default()
    });
    lld.media_scan().expect("media scan");
    let table = lld.bad_sector_table();
    let quarantined = lld.quarantined_segments();
    assert!(!table.is_empty());

    // Clean shutdown → checkpoint carries the table; ldck agrees.
    let config = lld.config().clone();
    lld.shutdown().expect("shutdown");
    let disk = lld.into_disk();
    let report = ldck::check_image(&disk.image_bytes(), &config);
    assert!(report.is_clean(), "image has errors: {:?}", report.findings);
    assert_eq!(report.stats.bad_sectors, table.len() as u64);

    // Checkpoint path restores it…
    let mut rec = Lld::open(disk, config.clone()).unwrap();
    assert_eq!(rec.bad_sector_table(), table);
    assert_eq!(rec.quarantined_segments(), quarantined);

    // …and so does the full recovery sweep after a crash (the checkpoint
    // is stale but its bad-sector section is still the source of truth).
    let mut b2 = rec.new_block(lid, Pred::Start).unwrap();
    rec.write(b2, &data(4096, 0x77)).unwrap();
    rec.flush(ld_core::FailureSet::PowerFailure).unwrap();
    b2 = rec.new_block(lid, Pred::Start).unwrap();
    rec.write(b2, &data(4096, 0x78)).unwrap(); // Unflushed tail.
    let mut disk = rec.into_disk();
    disk.crash_now();
    disk.revive();
    let swept = Lld::open(disk, config).unwrap();
    assert_eq!(swept.bad_sector_table(), table);
    assert_eq!(swept.quarantined_segments(), quarantined);
}

#[test]
fn reorganizers_leave_unreadable_blocks_in_place() {
    let mut lld = Lld::format(disk(), test_config()).unwrap();
    // Two lists written in alternation, so each is fragmented across
    // every segment they fill.
    let lids = [
        lld.new_list(PredList::Start, ListHints::default()).unwrap(),
        lld.new_list(PredList::Start, ListHints::default()).unwrap(),
    ];
    let mut blocks = Vec::new();
    for i in 0..80 {
        let b = lld.new_block(lids[i % 2], Pred::Start).unwrap();
        let d = data(4096, i as u8);
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
    let mut buf = vec![0u8; 4096];
    let mut stranded = Vec::new();
    for (b, d) in &blocks {
        match lld.read(*b, &mut buf) {
            Ok(n) => assert_eq!(&buf[..n], &d[..], "wrong bytes for {b}"),
            Err(LdError::Device(_)) => stranded.push((*b, lld.block_segment(*b))),
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert!(
        !stranded.is_empty(),
        "2% latent faults must strand some blocks"
    );

    let (rewritten, _) = lld.reorganize(2, 0).expect("reorganize");
    assert_eq!(rewritten, 2, "both lists are fragmented");
    let moved = lld.reorganize_hot(blocks.len()).expect("reorganize_hot");
    assert!(moved > 0, "readable hot blocks move");

    // Never wrong bytes; a stranded block stays where it was.
    for (b, d) in &blocks {
        match lld.read(*b, &mut buf) {
            Ok(n) => assert_eq!(&buf[..n], &d[..], "wrong bytes for {b}"),
            Err(LdError::Device(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
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
