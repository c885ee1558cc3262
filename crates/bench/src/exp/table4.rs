//! E3 — Table 4: small-file I/O. "The cost of creating, reading, and
//! deleting 10,000 1-Kbyte files and 1,000 10-Kbyte files in one
//! directory", in files per second, for MINIX LLD, MINIX, and SunOS.
//! The relations the paper reports are the `E3.*` claims in
//! `crate::claims`.

use crate::driver::on_paper_stacks;
use crate::exp::phases::small_file;
use crate::report::{col, json_col, rate, Report, Table};
use crate::rig;

/// Runs both file-size variants over all three file systems.
pub fn run(opts: super::Opts) -> Report {
    let (n_small, n_big) = if opts.quick {
        (1_000, 100)
    } else {
        (10_000, 1_000)
    };
    let mut report = Report::new("table4", opts.quick);
    report.note("E3: Table 4 — small-file I/O (files/second; C=create R=read D=delete)\n\n");
    for (n, bytes, label) in [
        (n_small, 1 << 10, "1-Kbyte files"),
        (n_big, 10 << 10, "10-Kbyte files"),
    ] {
        let (results, footnotes) = on_paper_stacks(
            rig::PARTITION_BYTES,
            &opts,
            &format!("table4/{label}"),
            |fs| small_file(fs, n, bytes),
        );
        let mut t = Table::new(
            format!("{n} x {label}"),
            [
                json_col("files", ""),
                json_col("file_bytes", "bytes"),
                col("File system", "fs", ""),
                col("C", "create_per_s", "files/s"),
                col("R", "read_per_s", "files/s"),
                col("D", "delete_per_s", "files/s"),
            ],
        );
        for (fs, r) in results {
            t.row([
                (n as u64).into(),
                (bytes as u64).into(),
                fs.into(),
                rate(r.create_per_s),
                rate(r.read_per_s),
                rate(r.delete_per_s),
            ]);
        }
        report.table(t);
        if !footnotes.is_empty() {
            report.note(format!("where the disk time went:\n{footnotes}"));
        }
        report.note("\n");
    }
    report
}

crate::claims::quick_test!(relations_hold_quick, "table4");
