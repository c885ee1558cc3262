//! E12 — disk-model calibration against the two raw-disk measurements of
//! §4.2: "A user-level process writing 0.5 Mbyte segments ... achieves a
//! throughput of 2400 Kbyte/s", and "a program that writes back-to-back
//! 4-Kbyte blocks to the disk achieves a throughput of only 300 Kbyte per
//! second". Also reports the calibrated average seek time (spec: 11.5 ms).

use simdisk::{BlockDev, SimDisk, SECTOR_SIZE};

use crate::report::{col, kb_per_s, num, Report, Table};
use crate::rig;

/// Runs the calibration.
pub fn run(opts: super::Opts) -> Report {
    // 0.5 MB sequential segment writes.
    let mut disk = rig::disk_sized(64 << 20);
    let seg = vec![0u8; 512 << 10];
    let total = 32u64;
    let t0 = disk.now_us();
    let mut sector = 0;
    for _ in 0..total {
        disk.write_sectors(sector, &seg).expect("write");
        sector += (seg.len() / SECTOR_SIZE) as u64;
    }
    let seg_kbs = kb_per_s(total * seg.len() as u64, disk.now_us() - t0);

    // Back-to-back 4 KB writes.
    let mut disk = rig::disk_sized(64 << 20);
    let block = vec![0u8; 4096];
    let n = 512u64;
    let t0 = disk.now_us();
    for i in 0..n {
        disk.write_sectors(i * 8, &block).expect("write");
    }
    let small_kbs = kb_per_s(n * 4096, disk.now_us() - t0);

    // Average random seek.
    let disk = SimDisk::hp_c3010();
    let g = *disk.geometry();
    let t = *disk.timing();
    let mut total_us = 0u64;
    let mut x = 0x12345u64;
    let samples = 200_000u64;
    for _ in 0..samples {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x % u64::from(g.cylinders)) as u32;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let b = (x % u64::from(g.cylinders)) as u32;
        total_us += t.seek_us(&g, a, b);
    }
    let avg_seek_ms = total_us as f64 / samples as f64 / 1000.0;

    let mut t = Table::new(
        "",
        [
            col("measurement", "measurement", ""),
            col("paper", "paper", ""),
            col("simulated", "simulated", ""),
        ],
    );
    t.row([
        "0.5 MB sequential writes (KB/s)".into(),
        "2400".into(),
        num(seg_kbs, 0),
    ])
    .row([
        "back-to-back 4 KB writes (KB/s)".into(),
        "~300".into(),
        num(small_kbs, 0),
    ])
    .row([
        "average seek (ms)".into(),
        "11.5".into(),
        num(avg_seek_ms, 1),
    ]);
    let mut report = Report::new("calibrate", opts.quick);
    report
        .note("E12: raw-disk calibration (HP C3010 model)\n\n")
        .table(t);
    report
}

crate::claims::quick_test!(calibration_matches_paper_anchors, "calibrate");
