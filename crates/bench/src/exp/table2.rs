//! E1 — Table 2: "Main memory used by LLD per Gbyte of physical disk space
//! for different configurations, assuming an average block-size of 4 Kbyte
//! and a compression ratio of 60%."

use lld::{ListGranularity, MemoryModel};
use simdisk::MemDisk;

use crate::report::{col, json_col, num, text_col, Report, Table};
use crate::workload::fill_list;

const GB: u64 = 1 << 30;

fn mb(bytes: u64) -> String {
    if bytes < 1024 {
        format!("{bytes} byte")
    } else if bytes < 1 << 20 {
        format!("{} Kbyte", bytes >> 10)
    } else {
        format!("{:.1} Mbyte", bytes as f64 / (1 << 20) as f64)
    }
}

/// Renders Table 2 from the paper's memory model, plus a live-instance
/// cross-check.
pub fn run(opts: super::Opts) -> Report {
    let single = MemoryModel::paper(GB, 4096, 512 << 10, false, ListGranularity::SingleList);
    let comp = MemoryModel::paper(
        GB,
        4096,
        512 << 10,
        true,
        ListGranularity::PerFile {
            avg_file_bytes: 8192,
        },
    );

    let mut t = Table::new(
        "",
        [
            col("Data structure", "structure", ""),
            text_col("LLD, single list"),
            json_col("single_list_bytes", "bytes"),
            text_col("LLD, compression + list per 8KB file"),
            json_col("compression_per_file_bytes", "bytes"),
        ],
    );
    for (name, a, b) in [
        (
            "Block-number map",
            single.block_map_bytes,
            comp.block_map_bytes,
        ),
        ("List table", single.list_table_bytes, comp.list_table_bytes),
        (
            "Segment usage table",
            single.usage_table_bytes,
            comp.usage_table_bytes,
        ),
        ("Total", single.total_bytes(), comp.total_bytes()),
    ] {
        t.row([name.into(), mb(a).into(), a.into(), mb(b).into(), b.into()]);
    }

    // Live cross-check: bill an actual populated instance with the same
    // per-entry costs and verify the per-block rate matches the model.
    let disk = MemDisk::with_capacity(16 << 20);
    let mut l = lld::Lld::format(disk, lld::LldConfig::small_for_tests()).expect("format");
    fill_list(&mut l, 512, None);
    let live = l.memory_report();
    let per_block = live.block_map_bytes as f64 / 512.0;

    let mut report = Report::new("table2", opts.quick);
    report
        .value("live_bytes_per_block", num(per_block, 1))
        .note(
            "E1: Table 2 — LLD main memory per GB of physical disk\n\
             (paper: 1.5 Mbyte / 4 byte / 6 Kbyte and 3.8 / 0.8 Mbyte / 6 Kbyte)\n\n",
        )
        .table(t)
        .note(format!(
            "\nLive cross-check: a populated instance bills {per_block:.1} bytes per block\n\
             (paper model: 6 bytes/block without compression).\n"
        ));
    report
}

crate::claims::quick_test!(table2_reproduces_paper_cells, "table2");
