//! E11 — the §5.2 comparison with Loge:
//!
//! - both Loge and LLD service a stream of individual random block writes
//!   far faster than update-in-place;
//! - "recovery in our LLD implementation is at least one order of
//!   magnitude faster than in Loge, since LLD only reads the segment
//!   summaries" while Loge reads the whole disk.

use ld_core::{FailureSet, LogicalDisk};
use loge::Loge;
use simdisk::BlockDev;

use crate::report::{col, kb_per_s, num, rate, secs, Report, Table};
use crate::rig;
use crate::workload::{compressible_data, fill_list, shuffled};

/// Runs the random-write-stream and recovery comparisons.
pub fn run(opts: super::Opts) -> Report {
    let (disk_bytes, nblocks) = if opts.quick {
        (64u64 << 20, 1_000usize)
    } else {
        (rig::PARTITION_BYTES, 4_000)
    };
    let block = 4096usize;
    let data = compressible_data(block, 0x10E6);
    let span = 20_000usize.min(nblocks * 4); // Logical address span.

    // --- random single-block write stream ---

    // Update-in-place baseline.
    let mut disk = rig::disk_sized(disk_bytes);
    let order = shuffled(span, 1);
    let t0 = disk.now_us();
    for &i in order.iter().take(nblocks) {
        disk.write_sectors((i * 8) as u64, &data).expect("write");
    }
    let inplace_kbs = kb_per_s((nblocks * block) as u64, disk.now_us() - t0);

    // Loge.
    let mut lg = Loge::format(rig::disk_sized(disk_bytes)).expect("format loge");
    let t0 = lg.disk().now_us();
    for &i in order.iter().take(nblocks) {
        lg.write((i % span) as u32, &data).expect("write");
    }
    let loge_kbs = kb_per_s((nblocks * block) as u64, lg.disk().now_us() - t0);

    // LLD (block interface directly).
    let mut ld =
        lld::Lld::format(rig::disk_sized(disk_bytes), rig::lld_config()).expect("format lld");
    let bids = fill_list(&mut ld, span, None);
    let t0 = ld.disk().now_us();
    for &i in order.iter().take(nblocks) {
        ld.write(bids[i % span], &data).expect("write");
    }
    ld.flush(FailureSet::PowerFailure).expect("flush");
    let lld_kbs = kb_per_s((nblocks * block) as u64, ld.disk().now_us() - t0);

    // --- recovery ---

    // Loge: whole-disk scan.
    let mut d = lg.into_disk();
    d.crash_now();
    d.revive();
    let lg = Loge::recover(d).expect("loge recovery");
    let loge_rec_us = lg.stats().recovery_us;

    // LLD: summary sweep.
    let config = ld.config().clone();
    let mut d = ld.into_disk();
    d.crash_now();
    d.revive();
    let ld = lld::Lld::open(d, config).expect("lld recovery");
    let lld_rec_us = ld.stats().recovery_us;

    let mut t = Table::new(
        "",
        [
            col("system", "system", ""),
            col("random 4KB writes (KB/s)", "random_write_kb_s", "KB/s"),
            col("recovery (s)", "recovery_s", "s"),
        ],
    );
    t.row([
        "update-in-place".into(),
        rate(inplace_kbs),
        num(f64::NAN, 2),
    ])
    .row(["Loge".into(), rate(loge_kbs), secs(loge_rec_us)])
    .row(["LLD".into(), rate(lld_kbs), secs(lld_rec_us)]);
    let ratio = loge_rec_us as f64 / lld_rec_us.max(1) as f64;
    let mut report = Report::new("loge", opts.quick);
    report
        .value("recovery_ratio", num(ratio, 0))
        .note(format!(
            "E11: Loge comparison ({} MB disk, {nblocks} random block writes)\n\
             (paper §5.2: both beat update-in-place on write streams; LLD recovery\n\
             is ≥10x faster because Loge must scan the whole disk)\n\
             Recovery ratio: {ratio:.0}x\n\n",
            disk_bytes >> 20,
        ))
        .table(t);
    report
}

crate::claims::quick_test!(loge_relations_hold_quick, "loge");
