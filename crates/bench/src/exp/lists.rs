//! E7 — the cost of supporting lists (§4.2): "we also ran the benchmarks
//! for a version of MINIX LLD that does not support lists. ... There is
//! only significant overhead during block allocation and deallocation;
//! during the create and delete phases of the small file benchmarks the
//! overhead for maintaining lists was approximately 15%."

use crate::driver::MinixLld;
use crate::exp::phases::small_file;
use crate::report::{col, rate, with_suffix, Report, Table};
use crate::rig;

fn run_variant(disk_bytes: u64, n: usize, maintain_lists: bool) -> (f64, f64, f64) {
    let lld_config = lld::LldConfig {
        maintain_lists,
        ..rig::lld_config()
    };
    let mut fs = MinixLld(rig::minix_lld_with(
        disk_bytes,
        lld_config,
        rig::minix_config(),
    ));
    let r = small_file(&mut fs, n, 1 << 10);
    (r.create_per_s, r.read_per_s, r.delete_per_s)
}

/// Measures the list-maintenance overhead on the small-file benchmark.
pub fn run(opts: super::Opts) -> Report {
    let (disk_bytes, n) = if opts.quick {
        (64 << 20, 500)
    } else {
        (rig::PARTITION_BYTES, 5_000)
    };
    let with = run_variant(disk_bytes, n, true);
    let without = run_variant(disk_bytes, n, false);

    let mut t = Table::new(
        "",
        [
            col("phase", "phase", ""),
            col("with lists (f/s)", "with_lists_per_s", "files/s"),
            col("no lists (f/s)", "no_lists_per_s", "files/s"),
            col("overhead", "overhead_pct", "%"),
        ],
    );
    for (phase, w, wo) in [
        ("create", with.0, without.0),
        ("read", with.1, without.1),
        ("delete", with.2, without.2),
    ] {
        t.row([
            phase.into(),
            rate(w),
            rate(wo),
            with_suffix(100.0 * (wo - w) / wo, 1, "%"),
        ]);
    }
    let mut report = Report::new("lists", opts.quick);
    report
        .note(format!(
            "E7: list-maintenance overhead ({n} x 1 KB files)\n\
             (paper: ~15% during create/delete, little overhead during reads/writes)\n\n"
        ))
        .table(t);
    report
}

crate::claims::quick_test!(list_overhead_shows_in_create_delete_only, "lists");
