//! E6 — recovery time (§4.2): "we measured the time for MINIX LLD to start
//! after a failure. The combined time for LD and MINIX to recover was 12
//! seconds. This number measures the cost of reading 788 segment summary
//! blocks (including the list information), building up the block-number
//! map, and reading the superblock, root i-node, and initializing the
//! MINIX file system data structures."

use minix_fs::{LdStore, MinixFs};
use simdisk::BlockDev;

use crate::report::{col, num, secs, Report, Table};
use crate::rig;
use crate::workload::compressible_data;

/// Loads the file system, crashes it, and measures the recovery sweep.
pub fn run(opts: super::Opts) -> Report {
    let (disk_bytes, nfiles) = if opts.quick {
        (64 << 20, 300)
    } else {
        (rig::PARTITION_BYTES, 2_000)
    };

    // Build a populated MINIX LLD.
    let mut fs = rig::minix_lld(disk_bytes);
    let data = compressible_data(4 << 10, 0xEC);
    for i in 0..nfiles {
        let ino = fs.create(&format!("/f{i:05}")).expect("create");
        fs.write(ino, 0, &data).expect("write");
    }
    fs.sync().expect("sync");

    // Crash: drop every in-memory structure. No checkpoint exists because
    // there was no clean shutdown.
    let mut disk = fs.into_store().into_disk();
    disk.crash_now();
    disk.revive();
    disk.reset_stats();

    // Recover LD (the sweep) and remount MINIX.
    let t0 = disk.now_us();
    let store = LdStore::mount(disk, rig::lld_config()).expect("LD recovery");
    let lld_stats = *store.lld().stats();
    let sweep = *store.lld().disk().stats();
    let mut fs = MinixFs::mount(store, rig::minix_config()).expect("mount");
    let total_us = fs.now_us() - t0;

    // Verify the recovered state actually works.
    let ino = fs.lookup("/f00000").expect("recovered file");
    let mut buf = vec![0u8; 4 << 10];
    assert_eq!(fs.read(ino, 0, &mut buf).expect("read"), 4 << 10);
    assert_eq!(buf, data, "recovered contents must match");

    assert!(
        !lld_stats.recovered_from_checkpoint,
        "a crash recovery must use the sweep, not a checkpoint"
    );

    let mut t = Table::new(
        "",
        [
            col("quantity", "quantity", ""),
            col("paper", "paper", ""),
            col("measured", "measured", ""),
        ],
    );
    t.row([
        "segment summaries read".into(),
        "788".into(),
        lld_stats.recovery_summaries_read.into(),
    ])
    .row([
        "LD sweep time (s)".into(),
        "-".into(),
        secs(lld_stats.recovery_us),
    ])
    .row(["LD + MINIX total (s)".into(), "12".into(), secs(total_us)]);
    // Where the sweep's time goes, per summary read: the disk's counters
    // from the crash to the end of the LD recovery (the checkpoint header
    // probe included).
    let per_summary = |us: u64| {
        num(
            us as f64 / 1e3 / lld_stats.recovery_summaries_read as f64,
            2,
        )
    };
    for (quantity, us) in [
        ("mean seek per summary (ms)", sweep.seek_us),
        ("mean rotational wait per summary (ms)", sweep.rotation_us),
        ("mean overhead per summary (ms)", sweep.overhead_us),
        ("mean transfer per summary (ms)", sweep.transfer_us),
        ("mean head switch per summary (ms)", sweep.switch_us),
    ] {
        t.row([quantity.into(), "-".into(), per_summary(us)]);
    }
    let mut report = Report::new("recovery", opts.quick);
    report
        .note(format!(
            "E6: recovery after failure ({} MB partition, {nfiles} files loaded)\n\n",
            disk_bytes >> 20
        ))
        .table(t);
    report
}

crate::claims::quick_test!(recovery_runs_and_reads_only_summaries, "recovery");
