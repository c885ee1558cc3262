//! E8 — segment-size sweep (§4.2): "The differences in performance for
//! 128-Kbyte, 256-Kbyte, and 512-Kbyte segments are within a few percent.
//! Smaller segment sizes result in a loss of write performance. For
//! 64-Kbyte segments we measured a reduction in write performance of 23%."

use crate::driver::{Bencher, MinixLld};
use crate::report::{change_pct, col, json_col, rate, text_col, Report, Table};
use crate::rig;
use crate::workload::compressible_data;

fn seq_write_kbs(disk_bytes: u64, file_bytes: u64, segment_bytes: usize) -> f64 {
    let lld_config = lld::LldConfig {
        segment_bytes,
        ..rig::lld_config()
    };
    let mut fs = MinixLld(rig::minix_lld_with(
        disk_bytes,
        lld_config,
        rig::minix_config(),
    ));
    let chunk = 8192;
    let data = compressible_data(chunk, 0x5E6);
    let h = fs.create("/big");
    let t0 = fs.now_us();
    for i in 0..(file_bytes / chunk as u64) {
        fs.write(h, i * chunk as u64, &data);
    }
    fs.sync();
    crate::report::kb_per_s(file_bytes, fs.now_us() - t0)
}

/// Sweeps the segment size over the sequential-write benchmark.
pub fn run(opts: super::Opts) -> Report {
    let (disk_bytes, file_bytes) = if opts.quick {
        (96u64 << 20, 8 << 20)
    } else {
        (rig::PARTITION_BYTES, 64 << 20)
    };
    let sizes = [64usize, 128, 256, 512];
    let results: Vec<(usize, f64)> = sizes
        .iter()
        .map(|&kb| (kb, seq_write_kbs(disk_bytes, file_bytes, kb << 10)))
        .collect();
    let base = results.last().expect("non-empty").1;

    let mut t = Table::new(
        "",
        [
            text_col("segment size"),
            json_col("segment_kb", "KB"),
            col("write KB/s", "write_kb_s", "KB/s"),
            col("vs 512 KB", "vs_512kb_pct", "%"),
        ],
    );
    for &(kb, kbs) in &results {
        t.row([
            format!("{kb} KB").into(),
            (kb as u64).into(),
            rate(kbs),
            change_pct(100.0 * (kbs - base) / base),
        ]);
    }
    let mut report = Report::new("segsize", opts.quick);
    report
        .note(format!(
            "E8: segment-size sweep, sequential write of {} MB\n\
             (paper: 128/256/512 KB within a few percent; 64 KB loses 23%)\n\n",
            file_bytes >> 20
        ))
        .table(t);
    report
}

crate::claims::quick_test!(sixty_four_kb_segments_lose_write_performance, "segsize");
