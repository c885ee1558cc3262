//! Crashes inside the two writes LLD makes outside normal operation.
//!
//! Recovery materializes an NVRAM tail into a free segment and then
//! invalidates the NVRAM image. A crash anywhere in that, the
//! invalidation included, leaves an image the next recovery must bring
//! back to the same state: it must recognise a segment that already holds
//! the tail and not write a second copy under the same summary seq (that
//! copy costs a free segment, and once more writes and a crash follow,
//! `ldck` rejects the image with two segments claiming one seq).
//!
//! A clean shutdown seals the open segment and writes the checkpoint. A
//! crash anywhere in that must recover by the sweep, or by the checkpoint
//! once it is whole, with every flushed block intact.
//!
//! Both walks record the writes once (`SimDisk::record_writes`) and boot
//! the disk at every prefix of that log (`CrashImages`).

use ld_core::{Bid, FailureSet, Lid, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig};
use simdisk::{BlockDev, CrashImages, SimDisk};

const CAPACITY: u64 = 16 << 20;
const NVRAM: usize = 512 << 10;

fn config() -> LldConfig {
    LldConfig {
        segment_bytes: 64 << 10,
        summary_bytes: 4 << 10,
        cpu: lld::CpuModel::free(),
        ..LldConfig::default()
    }
}

fn content(seed: u64) -> Vec<u8> {
    (0..4096u64)
        .map(|j| ((seed * 37 + j * 11) % 253) as u8)
        .collect()
}

/// Crashes the device under `lld` and recovers.
fn crash_and_recover(lld: Lld<SimDisk>) -> Lld<SimDisk> {
    let mut disk = lld.into_disk();
    disk.crash_now();
    disk.revive();
    Lld::open(disk, config()).expect("recovery")
}

fn assert_reads(lld: &mut Lld<SimDisk>, blocks: &[(Bid, u64)]) {
    let mut buf = vec![0u8; 4096];
    for &(bid, seed) in blocks {
        assert_eq!(lld.read(bid, &mut buf).expect("read"), 4096, "block {bid}");
        assert_eq!(buf, content(seed), "block {bid}");
    }
}

fn assert_clean(medium: &[u8], when: &str) {
    let report = ldck::check_image(medium, &config());
    assert!(
        report.is_clean(),
        "{when}: {:?}",
        report.errors().collect::<Vec<_>>()
    );
}

/// Formats a disk, writes three blocks on one list and flushes them
/// (into NVRAM when the disk has it). Returns the disk manager, the list
/// and the blocks with their content seeds.
fn three_flushed_blocks(disk: SimDisk) -> (Lld<SimDisk>, Lid, Vec<(Bid, u64)>) {
    let mut lld = Lld::format(disk, config()).expect("format");
    let lid = lld
        .new_list(PredList::Start, ListHints::default())
        .expect("list");
    let mut blocks = Vec::new();
    let mut pred = Pred::Start;
    for seed in 0..3 {
        let b = lld.new_block(lid, pred).expect("new block");
        lld.write(b, &content(seed)).expect("write");
        blocks.push((b, seed));
        pred = Pred::After(b);
    }
    lld.flush(FailureSet::PowerFailure).expect("flush");
    (lld, lid, blocks)
}

/// Boots the disk a crash at the current prefix of `images` leaves and
/// recovers it; the medium must check clean and every block read back.
fn recover_prefix(images: &CrashImages, blocks: &[(Bid, u64)], when: &str) -> Lld<SimDisk> {
    assert_clean(images.medium(), when);
    let mut lld = Lld::open(images.disk(), config()).expect("recovery");
    assert_reads(&mut lld, blocks);
    lld
}

/// Appends enough blocks to `lid` after the last of `blocks` to seal
/// segments, flushes, crashes: the medium must still check clean, and a
/// recovery must read every block back. A duplicate tail seq shows up in
/// `ldck` only once segments sealed after the recovery reach the medium.
fn write_more_and_crash(
    mut lld: Lld<SimDisk>,
    images: &mut CrashImages,
    lid: Lid,
    blocks: &[(Bid, u64)],
    when: &str,
) {
    let mut blocks = blocks.to_vec();
    let mut pred = blocks.last().map_or(Pred::Start, |&(b, _)| Pred::After(b));
    let sealed = lld.stats().segments_sealed;
    for seed in 100..137 {
        let b = lld.new_block(lid, pred).expect("new block");
        lld.write(b, &content(seed)).expect("write");
        blocks.push((b, seed));
        pred = Pred::After(b);
    }
    assert!(
        lld.stats().segments_sealed > sealed,
        "{when}: the extra writes seal a segment"
    );
    lld.flush(FailureSet::PowerFailure).expect("flush");
    let mut disk = lld.into_disk();
    disk.crash_now();
    disk.revive();
    images.with_medium_of(&disk, |medium| assert_clean(medium, when));
    let mut lld = Lld::open(disk, config()).expect("recovery");
    assert_reads(&mut lld, &blocks);
}

#[test]
fn lost_invalidation_does_not_materialize_the_tail_twice() {
    let disk = SimDisk::hp_c3010_with_capacity(CAPACITY).with_nvram(NVRAM);
    let (lld, lid, blocks) = three_flushed_blocks(disk);
    assert_eq!(lld.stats().nvram_saves, 1, "NVRAM absorbs the flush");

    // The uninterrupted recovery materializes the tail and invalidates
    // the image; record what it writes.
    let mut disk = lld.into_disk();
    disk.crash_now();
    disk.revive();
    disk.record_writes();
    let mut lld = Lld::open(disk, config()).expect("recovery");
    assert!(lld.stats().recovery_nvram_applied);
    let free = lld.free_segments();
    assert_reads(&mut lld, &blocks);
    let mut images = lld.disk_mut().take_recording().expect("recording");
    let image = images.nvram().to_vec();

    // A crash after each of its writes; the last is the invalidation, so
    // prefix `writes() - 1` is a crash that lost only that.
    let writes = images.writes();
    for n in 0..=writes {
        images.advance_to(n);
        let when = format!("recovery crashed at {n} of {writes}");
        let mut lld = recover_prefix(&images, &blocks, &when);
        assert_eq!(
            lld.free_segments(),
            free,
            "{when}: no second copy of the tail"
        );
        if n == writes - 1 {
            assert!(
                !lld.stats().recovery_nvram_applied,
                "the tail is already on disk"
            );
            let mut raw = vec![0u8; NVRAM];
            lld.disk_mut().nvram_read(0, &mut raw).expect("nvram read");
            assert_ne!(raw, image, "the image is invalidated");
        }
        write_more_and_crash(lld, &mut images, lid, &blocks, &when);
    }
}

/// Walks every crash inside `shutdown` after three flushed blocks. The
/// sweep recovers the prefixes before the checkpoint is whole, and the
/// checkpoint the rest.
fn walk_shutdown(disk: SimDisk) {
    let (mut lld, lid, blocks) = three_flushed_blocks(disk);
    lld.disk_mut().record_writes();
    lld.shutdown().expect("shutdown");
    let mut images = lld.disk_mut().take_recording().expect("recording");
    let writes = images.writes();
    let mut first_restore = None;
    for n in 0..=writes {
        images.advance_to(n);
        let when = format!("shutdown crashed at {n} of {writes}");
        let lld = recover_prefix(&images, &blocks, &when);
        let restored = lld.stats().recovered_from_checkpoint;
        match first_restore {
            None if restored => first_restore = Some(n),
            Some(_) => assert!(restored, "{when}: a whole checkpoint stays whole"),
            None => {}
        }
        write_more_and_crash(lld, &mut images, lid, &blocks, &when);
    }
    assert!(
        first_restore.is_some_and(|n| n > 0),
        "only a whole shutdown restores from its checkpoint: {first_restore:?}"
    );
}

#[test]
fn every_crash_inside_a_clean_shutdown_recovers() {
    walk_shutdown(SimDisk::hp_c3010_with_capacity(CAPACITY));
}

#[test]
fn every_crash_inside_a_clean_shutdown_with_nvram_recovers() {
    walk_shutdown(SimDisk::hp_c3010_with_capacity(CAPACITY).with_nvram(NVRAM));
}

#[test]
fn lost_invalidation_after_a_seal_replays_the_sealed_copy() {
    let disk = SimDisk::hp_c3010_with_capacity(CAPACITY).with_nvram(NVRAM);
    let mut lld = Lld::format(disk, config()).expect("format");
    let lid = lld
        .new_list(PredList::Start, ListHints::default())
        .expect("list");
    let a = lld.new_block(lid, Pred::Start).expect("new block");
    lld.write(a, &content(0)).expect("write");
    lld.flush(FailureSet::PowerFailure).expect("flush");
    assert_eq!(lld.stats().nvram_saves, 1, "NVRAM absorbs the flush");
    let mut image = vec![0u8; NVRAM];
    lld.disk_mut()
        .nvram_read(0, &mut image)
        .expect("nvram read");

    // Rewrite the block, then fill the segment so it seals, which
    // invalidates the image; a crash loses that invalidation.
    lld.write(a, &content(1)).expect("write");
    let mut blocks = vec![(a, 1)];
    let mut pred = Pred::After(a);
    for seed in 2..22 {
        let b = lld.new_block(lid, pred).expect("new block");
        lld.write(b, &content(seed)).expect("write");
        blocks.push((b, seed));
        pred = Pred::After(b);
    }
    assert!(lld.stats().segments_sealed > 0);
    lld.disk_mut().nvram_write(0, &image).expect("nvram write");
    let free = lld.free_segments();

    let mut lld = crash_and_recover(lld);
    assert!(
        !lld.stats().recovery_nvram_applied,
        "the sealed copy supersedes the image"
    );
    assert_eq!(lld.free_segments(), free);
    // The seal made the rewrite durable; blocks written after it may be
    // lost, but none reads back stale or torn.
    let mut buf = vec![0u8; 4096];
    let mut survivors = 0;
    for &(b, seed) in &blocks {
        match lld.read(b, &mut buf) {
            Ok(4096) => {
                assert_eq!(buf, content(seed), "block {b}");
                survivors += 1;
            }
            Ok(0) | Err(_) => assert_ne!(b, a, "the newer write of {a} is durable"),
            Ok(n) => panic!("block {b} reads back {n} bytes"),
        }
    }
    assert!(survivors > 1);
    let disk = lld.into_disk();
    let report = ldck::check_image(&disk.image_bytes(), &config());
    assert!(
        report.is_clean(),
        "{:?}",
        report.errors().collect::<Vec<_>>()
    );
}
