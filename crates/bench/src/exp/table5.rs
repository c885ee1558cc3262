//! E4 — Table 5: large-file I/O. "Performance results in Kbyte/sec for
//! writing and reading a 80-Mbyte file (in 8-Kbyte chunks)."
//!
//! Relations the paper reports:
//! - MINIX LLD "shows excellent performance on all writes ... 85% of the
//!   available bandwidth"; MINIX "uses only 13%" (the extra-rotation
//!   effect);
//! - MINIX beats MINIX LLD on sequential reads (prefetching; LLD's is
//!   disabled);
//! - MINIX LLD beats MINIX on random reads ("MINIX's read-ahead strategy
//!   fails");
//! - after random writes, the sequential re-read favours MINIX (update in
//!   place preserves layout);
//! - SunOS beats both on sequential writes and all reads, but loses to
//!   MINIX LLD on random writes.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::PAPER_STACKS;

    #[test]
    fn relations_hold_quick() {
        // The file must be much larger than the 6 MB buffer cache or the
        // random-read phase degenerates into a cache benchmark.
        let [lld, raw, sun] =
            PAPER_STACKS.map(|build| large_file(build(96 << 20).as_mut(), 16 << 20, 8192));

        // LLD writes are log-structured: several times MINIX's.
        assert!(
            lld.write_seq > 3.0 * raw.write_seq,
            "LLD seq write {:.0} vs MINIX {:.0}",
            lld.write_seq,
            raw.write_seq
        );
        assert!(
            lld.write_rand > 3.0 * raw.write_rand,
            "LLD rand write {:.0} vs MINIX {:.0}",
            lld.write_rand,
            raw.write_rand
        );
        // LLD uses a large fraction of the 2400 KB/s bandwidth.
        assert!(
            lld.write_seq > 1_500.0,
            "LLD seq write only {:.0} KB/s",
            lld.write_seq
        );
        // MINIX is rotation-bound around 300 KB/s.
        assert!(
            (150.0..600.0).contains(&raw.write_seq),
            "MINIX seq write {:.0} KB/s should be rotation-bound",
            raw.write_seq
        );
        // Prefetching helps MINIX sequential reads beat LLD's.
        assert!(
            raw.read_seq > lld.read_seq,
            "MINIX seq read {:.0} vs LLD {:.0}",
            raw.read_seq,
            lld.read_seq
        );
        // Random reads: MINIX's read-ahead fails, LLD does not pay for it.
        assert!(
            lld.read_rand > raw.read_rand,
            "LLD rand read {:.0} vs MINIX {:.0}",
            lld.read_rand,
            raw.read_rand
        );
        // SunOS wins sequential writes and reads, loses random writes.
        assert!(sun.write_seq > raw.write_seq);
        assert!(sun.read_seq > lld.read_seq);
        assert!(
            lld.write_rand > sun.write_rand,
            "LLD rand write {:.0} vs SunOS {:.0}",
            lld.write_rand,
            sun.write_rand
        );
    }
}
