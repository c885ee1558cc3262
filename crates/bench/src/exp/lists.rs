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

#[cfg(test)]
mod tests {
    #[test]
    fn list_overhead_shows_in_create_delete_only() {
        let with = super::run_variant(64 << 20, 500, true);
        let without = super::run_variant(64 << 20, 500, false);
        // Create/delete get slower with lists...
        assert!(
            without.0 > with.0,
            "create without lists ({:.0}/s) should beat with lists ({:.0}/s)",
            without.0,
            with.0
        );
        let create_overhead = (without.0 - with.0) / without.0;
        assert!(
            (0.02..0.45).contains(&create_overhead),
            "create overhead {:.1}% should be noticeable but bounded",
            create_overhead * 100.0
        );
        // ...while reads barely change.
        let read_delta = ((without.1 - with.1) / without.1).abs();
        assert!(
            read_delta < 0.10,
            "read overhead {:.1}% should be negligible",
            read_delta * 100.0
        );
    }
}
