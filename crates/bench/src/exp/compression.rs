//! E10 — compression (§4.2): "we measured the throughput of MINIX LLD
//! with compression; the write throughput was 1600 Kbyte per second, and
//! the read throughput was 800 Kbyte per second. The write throughput is
//! within 21% of the throughput without compression; this is because one
//! segment can be compressed while the previous segment is being written
//! to disk. The read throughput is low because we cannot overlap reading
//! and decompression."

use minix_fs::{LdStore, MinixFs};

use crate::report::{col, kb_per_s, num, rate, Report, Table};
use crate::rig;
use crate::workload::compressible_data;

fn throughputs(disk_bytes: u64, file_bytes: u64, compress: bool) -> (f64, f64, f64) {
    let store = if compress {
        LdStore::format_compressed(rig::disk_sized(disk_bytes), rig::lld_config())
    } else {
        LdStore::format(rig::disk_sized(disk_bytes), rig::lld_config())
    }
    .expect("format");
    let mut fs = MinixFs::format(store, rig::minix_config()).expect("format fs");

    let chunk = 8192usize;
    let data = compressible_data(chunk, 0xC0);
    let ino = fs.create("/big").expect("create");
    let t0 = fs.now_us();
    for i in 0..(file_bytes / chunk as u64) {
        fs.write(ino, i * chunk as u64, &data).expect("write");
    }
    fs.sync().expect("sync");
    let write_kbs = kb_per_s(file_bytes, fs.now_us() - t0);

    fs.drop_caches().expect("drop");
    let mut buf = vec![0u8; chunk];
    let t0 = fs.now_us();
    for i in 0..(file_bytes / chunk as u64) {
        fs.read(ino, i * chunk as u64, &mut buf).expect("read");
    }
    let read_kbs = kb_per_s(file_bytes, fs.now_us() - t0);

    // Actual on-medium compression ratio.
    let s = fs.store().lld().stats();
    let ratio = if s.user_bytes_written == 0 {
        1.0
    } else {
        s.stored_bytes_written as f64 / s.user_bytes_written as f64
    };
    (write_kbs, read_kbs, ratio)
}

/// Measures sequential throughput with and without transparent
/// compression.
pub fn run(opts: super::Opts) -> Report {
    let (disk_bytes, file_bytes) = if opts.quick {
        (96u64 << 20, 8u64 << 20)
    } else {
        (rig::PARTITION_BYTES, 48 << 20)
    };
    let (w_plain, r_plain, _) = throughputs(disk_bytes, file_bytes, false);
    let (w_comp, r_comp, ratio) = throughputs(disk_bytes, file_bytes, true);

    let mut t = Table::new(
        "",
        [
            col("configuration", "configuration", ""),
            col("write KB/s", "write_kb_s", "KB/s"),
            col("read KB/s", "read_kb_s", "KB/s"),
        ],
    );
    t.row(["no compression".into(), rate(w_plain), rate(r_plain)])
        .row(["compression".into(), rate(w_comp), rate(r_comp)])
        .row(["paper (compression)".into(), num(1600.0, 0), num(800.0, 0)]);
    let mut report = Report::new("compression", opts.quick);
    report
        .value("stored_pct", num(ratio * 100.0, 0))
        .note(format!(
            "E10: transparent compression, {} MB sequential file\n\
             (measured compression ratio: {:.0}% of original;\n\
             writes pipeline compression with the previous segment's write,\n\
             reads serialize read + decompression)\n\n",
            file_bytes >> 20,
            ratio * 100.0,
        ))
        .table(t);
    report
}

crate::claims::quick_test!(compression_shapes_match_paper, "compression");
