//! E9 — the small-i-node-block variant (§4.2): "We measured a version of
//! MINIX LLD that allocates each i-node as a small block. ... this version
//! performs the same for write operations and worse for read operations on
//! the small-file benchmarks. ... This version of MINIX LLD exhibits the
//! same performance on the large-file benchmark."

use minix_fs::{FsConfig, InodeMode};

use crate::driver::MinixLld;
use crate::exp::phases::{large_file, small_file};
use crate::report::{col, rate, Report, Table};
use crate::rig;

fn build(disk_bytes: u64, mode: InodeMode) -> MinixLld {
    let fs_config = FsConfig {
        inode_mode: mode,
        ..rig::minix_config()
    };
    MinixLld(rig::minix_lld_with(
        disk_bytes,
        rig::lld_config(),
        fs_config,
    ))
}

/// Compares packed i-node blocks against 64-byte i-node blocks.
pub fn run(opts: super::Opts) -> Report {
    let (disk_bytes, n, file_mb) = if opts.quick {
        (64u64 << 20, 500, 4u64)
    } else {
        (rig::PARTITION_BYTES, 5_000, 32)
    };

    let mut report = Report::new("inodes", opts.quick);
    report.note(
        "E9: i-node storage — packed i-node blocks vs 64-byte i-node blocks\n\
         (paper: create/delete similar, small-file reads worse with small\n\
         blocks, large-file unchanged)\n\n",
    );
    let variants = [
        ("packed i-node blocks", InodeMode::Packed),
        ("64-byte i-node blocks", InodeMode::SmallBlocks),
    ];

    let mut t = Table::new(
        format!("{n} x 1 KB files"),
        [
            col("variant", "variant", ""),
            col("C (f/s)", "create_per_s", "files/s"),
            col("R (f/s)", "read_per_s", "files/s"),
            col("D (f/s)", "delete_per_s", "files/s"),
        ],
    );
    for (label, mode) in variants {
        let r = small_file(&mut build(disk_bytes, mode), n, 1 << 10);
        t.row([
            label.into(),
            rate(r.create_per_s),
            rate(r.read_per_s),
            rate(r.delete_per_s),
        ]);
    }
    report.table(t).note("\n");

    let mut t = Table::new(
        format!("{file_mb} MB large file"),
        [
            col("variant", "variant", ""),
            col("seq write KB/s", "write_seq", "KB/s"),
            col("seq read KB/s", "read_seq", "KB/s"),
        ],
    );
    for (label, mode) in variants {
        let r = large_file(&mut build(disk_bytes, mode), file_mb << 20, 8192);
        t.row([label.into(), rate(r.write_seq), rate(r.read_seq)]);
    }
    report.table(t);
    report
}

crate::claims::quick_test!(small_inodes_hurt_small_file_reads, "inodes";
    #[test]
    fn small_inodes_same_large_file_performance() {
        let mut packed = build(64 << 20, InodeMode::Packed);
        let lp = large_file(&mut packed, 4 << 20, 8192);
        let mut small = build(64 << 20, InodeMode::SmallBlocks);
        let ls = large_file(&mut small, 4 << 20, 8192);
        // "exhibits the same performance on the large-file benchmark,
        // since this benchmark operates on a single file".
        let delta = (lp.write_seq - ls.write_seq).abs() / lp.write_seq;
        assert!(
            delta < 0.05,
            "large-file writes differ by {:.1}%",
            delta * 100.0
        );
    }
);
