//! Recovery materializes an NVRAM tail into a free segment and then
//! invalidates the NVRAM image. If a crash loses that invalidation, the
//! next recovery finds the image again. It must recognise the segment that
//! already holds it and not write a second copy under the same summary
//! seq: that copy costs a free segment, and once more writes and a crash
//! follow, `ldck` rejects the image with two segments claiming one seq.

use ld_core::{Bid, FailureSet, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig};
use simdisk::{BlockDev, SimDisk};

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

#[test]
fn lost_invalidation_does_not_materialize_the_tail_twice() {
    let disk = SimDisk::hp_c3010_with_capacity(CAPACITY).with_nvram(NVRAM);
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
    assert_eq!(lld.stats().nvram_saves, 1, "NVRAM absorbs the flush");
    let mut image = vec![0u8; NVRAM];
    lld.disk_mut()
        .nvram_read(0, &mut image)
        .expect("nvram read");

    // The first recovery materializes the tail and invalidates the image.
    let mut lld = crash_and_recover(lld);
    assert!(lld.stats().recovery_nvram_applied);
    let free = lld.free_segments();
    assert_reads(&mut lld, &blocks);

    // A crash lost that invalidation: the image is back.
    lld.disk_mut().nvram_write(0, &image).expect("nvram write");
    let mut lld = crash_and_recover(lld);
    assert!(
        !lld.stats().recovery_nvram_applied,
        "the tail is already on disk"
    );
    assert_eq!(lld.free_segments(), free, "no second copy of the tail");
    assert_reads(&mut lld, &blocks);
    let mut raw = vec![0u8; NVRAM];
    lld.disk_mut().nvram_read(0, &mut raw).expect("nvram read");
    assert_ne!(raw, image, "the image is invalidated");

    // More writes, a crash, and the image must still check clean.
    for seed in 3..40 {
        let b = lld.new_block(lid, pred).expect("new block");
        lld.write(b, &content(seed)).expect("write");
        blocks.push((b, seed));
        pred = Pred::After(b);
    }
    lld.flush(FailureSet::PowerFailure).expect("flush");
    let mut disk = lld.into_disk();
    disk.crash_now();
    disk.revive();
    let report = ldck::check_image(&disk.image_bytes(), &config());
    assert!(
        report.is_clean(),
        "{:?}",
        report.errors().collect::<Vec<_>>()
    );
    let mut lld = Lld::open(disk, config()).expect("recovery");
    assert_reads(&mut lld, &blocks);
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
