//! Produce raw LLD disk images for the offline checker.
//!
//! Builds a small logical disk, runs a workload, and writes two image
//! files: one cleanly shut down (with a checkpoint) and one crashed
//! mid-workload. Point `ldck` at them:
//!
//! ```text
//! cargo run --example offline_check -- /tmp/clean.img /tmp/crashed.img
//! cargo run -p ldck -- --segment-bytes 64k --summary-bytes 4k /tmp/clean.img
//! cargo run -p ldck -- --segment-bytes 64k --summary-bytes 4k /tmp/crashed.img
//! ```
//!
//! Both must check clean: a crash leaves residue (an absent checkpoint,
//! maybe an incomplete ARU) but never an inconsistent image — that is the
//! paper's no-fsck claim, and `ldck` is the fsck that proves it.

use ld_core::{FailureSet, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig};
use simdisk::SimDisk;

fn workload(ld: &mut Lld<SimDisk>, files: usize) -> ld_core::Result<()> {
    for f in 0..files {
        let lid = ld.new_list(PredList::Start, ListHints::default())?;
        let mut prev = None;
        for i in 0..12u8 {
            let bid = ld.new_block(lid, prev.map_or(Pred::Start, Pred::After))?;
            ld.write(bid, &vec![f as u8 ^ i; 4096])?;
            prev = Some(bid);
        }
        if f % 2 == 0 {
            ld.flush(FailureSet::PowerFailure)?;
        }
    }
    Ok(())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let clean_path = args.next().unwrap_or_else(|| "clean.img".into());
    let crashed_path = args.next().unwrap_or_else(|| "crashed.img".into());
    let config = LldConfig::small_for_tests();

    // Clean shutdown: checkpoint written, marker valid.
    let disk = SimDisk::hp_c3010_with_capacity(4 << 20);
    let mut ld = Lld::format(disk, config.clone()).expect("format");
    workload(&mut ld, 6).expect("workload");
    ld.shutdown().expect("shutdown");
    std::fs::write(&clean_path, ld.into_disk().image_bytes()).expect("write image");
    println!("wrote {clean_path} (clean shutdown)");

    // Crash mid-workload: record the run, then keep what a power failure
    // after 900 writes would have left on the platter.
    let mut disk = SimDisk::hp_c3010_with_capacity(4 << 20);
    disk.record_writes();
    let mut ld = Lld::format(disk, config).expect("format");
    workload(&mut ld, 24).expect("workload");
    let mut images = ld.into_disk().take_recording().expect("recording");
    assert!(900 < images.writes(), "the crash falls inside the workload");
    images.advance_to(900);
    std::fs::write(&crashed_path, images.medium()).expect("write image");
    println!("wrote {crashed_path} (crashed mid-workload)");
}
