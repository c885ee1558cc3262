//! Unit-level media-fault behaviour of the disk manager: bounded read
//! retry, scrub/relocate/remap, quarantine, and persistence of the bad
//! sector table across checkpoint and recovery (the crash harness,
//! `harness`, checks the recoveries).

mod harness;

use harness::{config, content, Run};
use ld_core::{Bid, LdError, Lid, ListHints, LogicalDisk, Pred, PredList};
use lld::Lld;
use proptest::prelude::*;
use simdisk::{FaultConfig, SimDisk};

const CAPACITY: u64 = 16 << 20;

fn disk() -> SimDisk {
    SimDisk::hp_c3010_with_capacity(CAPACITY)
}

/// Writes `n` 4 KB blocks on one list and flushes; returns their ids and
/// contents.
fn populate(lld: &mut Lld<SimDisk>, n: usize) -> Vec<(Bid, Vec<u8>)> {
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
