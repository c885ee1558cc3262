//! E14 — NVRAM extension (§5.3, after Baker et al. 1992): "with 0.5 Mbyte
//! of NVRAM the number of partially written segments can be reduced
//! considerably; the number of disk accesses can be reduced by about
//! 20% ... We expect that similar results can be obtained for LLD."
//!
//! A sync-heavy small-file workload (every file fsync'd, the worst case
//! §3.2 worries about) runs against MINIX LLD with varying NVRAM sizes.

use minix_fs::{LdStore, MinixFs};

use crate::report::{change_pct, col, json_col, ops_per_s, rate, text_col, Report, Table};
use crate::rig;
use crate::workload::compressible_data;

struct Row {
    nvram_kb: usize,
    partials: u64,
    nvram_saves: u64,
    disk_ops: u64,
    files_per_s: f64,
}

fn run_one(disk_bytes: u64, nfiles: usize, nvram_bytes: usize) -> Row {
    let disk = rig::disk_sized(disk_bytes).with_nvram(nvram_bytes);
    let store = LdStore::format(disk, rig::lld_config()).expect("format");
    let mut fs = MinixFs::format(store, rig::minix_config()).expect("mkfs");
    let data = compressible_data(2 << 10, 0x4E);

    let ops_before = {
        let s = fs.store().disk().stats();
        s.read_ops + s.write_ops
    };
    let t0 = fs.now_us();
    for i in 0..nfiles {
        let ino = fs.create(&format!("/f{i:05}")).expect("create");
        fs.write(ino, 0, &data).expect("write");
        // fsync after every file: the flush-heavy pattern NVRAM absorbs.
        fs.sync().expect("sync");
    }
    let elapsed = fs.now_us() - t0;
    let s = fs.store().disk().stats();
    let lld = fs.store().lld().stats();
    Row {
        nvram_kb: nvram_bytes >> 10,
        partials: lld.partial_segment_writes,
        nvram_saves: lld.nvram_saves,
        disk_ops: s.read_ops + s.write_ops - ops_before,
        files_per_s: ops_per_s(nfiles as u64, elapsed),
    }
}

/// Sweeps the NVRAM size over the fsync-per-file workload.
pub fn run(opts: super::Opts) -> Report {
    let (disk_bytes, nfiles) = if opts.quick {
        (64u64 << 20, 300)
    } else {
        (rig::PARTITION_BYTES, 2_000)
    };
    let rows: Vec<Row> = [0usize, 128 << 10, 512 << 10]
        .into_iter()
        .map(|nv| run_one(disk_bytes, nfiles, nv))
        .collect();
    let base_ops = rows[0].disk_ops;

    let mut t = Table::new(
        "",
        [
            text_col("NVRAM"),
            json_col("nvram_kb", "KB"),
            col("partial seg writes", "partial_segment_writes", ""),
            col("NVRAM saves", "nvram_saves", ""),
            col("disk ops", "disk_ops", ""),
            col("vs none", "vs_none_pct", "%"),
            col("files/s", "files_per_s", "files/s"),
        ],
    );
    for r in &rows {
        t.row([
            if r.nvram_kb == 0 {
                "none".into()
            } else {
                format!("{} KB", r.nvram_kb).into()
            },
            (r.nvram_kb as u64).into(),
            r.partials.into(),
            r.nvram_saves.into(),
            r.disk_ops.into(),
            change_pct(100.0 * (r.disk_ops as f64 - base_ops as f64) / base_ops as f64),
            rate(r.files_per_s),
        ]);
    }
    let mut report = Report::new("nvram", opts.quick);
    report
        .note(format!(
            "E14: NVRAM extension — {nfiles} files, fsync after every file\n\
             (Baker et al. via §5.3: 0.5 MB NVRAM removes most partial segment\n\
             writes and cuts disk accesses ~20%)\n\n"
        ))
        .table(t);
    report
}

crate::claims::quick_test!(nvram_removes_partials_and_cuts_disk_ops, "nvram");
