//! E4 — Table 5: large-file I/O. "Performance results in Kbyte/sec for
//! writing and reading a 80-Mbyte file (in 8-Kbyte chunks)."
//! The relations the paper reports are the `E4.*` claims in
//! `crate::claims`.

use crate::driver::on_paper_stacks;
use crate::exp::phases::large_file;
use crate::report::{col, rate, Report, Table};
use crate::rig;

/// Runs the five-phase benchmark over all three file systems.
pub fn run(opts: super::Opts) -> Report {
    let file_bytes: u64 = if opts.quick { 16 << 20 } else { 80 << 20 };
    let (results, footnotes) = on_paper_stacks(rig::PARTITION_BYTES, &opts, "table5", |fs| {
        large_file(fs, file_bytes, 8192)
    });
    let mut t = Table::new(
        "",
        [
            col("File system", "fs", ""),
            col("Write Seq.", "write_seq", "KB/s"),
            col("Read Seq.", "read_seq", "KB/s"),
            col("Write Rand.", "write_rand", "KB/s"),
            col("Read Rand.", "read_rand", "KB/s"),
            col("Read Seq. (2)", "reread_seq", "KB/s"),
        ],
    );
    for (fs, r) in results {
        t.row([
            fs.into(),
            rate(r.write_seq),
            rate(r.read_seq),
            rate(r.write_rand),
            rate(r.read_rand),
            rate(r.reread_seq),
        ]);
    }
    let mut report = Report::new("table5", opts.quick);
    report.value("file_mb", file_bytes >> 20).note(format!(
        "E4: Table 5 — large-file I/O ({} MB file, 8 KB chunks; KB/s)\n\
         (paper anchors: MINIX LLD sequential writes ≈85% of the 2400 KB/s\n\
         bandwidth; MINIX ≈13%)\n\n",
        file_bytes >> 20
    ));
    report.table(t);
    if !footnotes.is_empty() {
        report.note(format!("where the disk time went:\n{footnotes}"));
    }
    report
}

crate::claims::quick_test!(relations_hold_quick, "table5");
