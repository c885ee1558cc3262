//! E15 — adaptive block rearrangement (§5.3, after Akyürek & Salem 1993):
//! "The driver periodically reorganizes the layout of blocks on the disk
//! based on estimated reference frequencies ... Measurements show that the
//! adaptive driver reduces seek times by more than half ... As LD can
//! rearrange blocks dynamically, the proposed scheme can be applied to LD
//! too."
//!
//! A skewed random-read workload (90 % of reads hit 10 % of blocks) runs
//! before and after `Lld::reorganize_hot` collects the hot set into a
//! contiguous region.

use ld_core::{FailureSet, LogicalDisk};
use lld::Lld;
use simdisk::{BlockDev, SimDisk};

use crate::report::{col, num, Report, Table};
use crate::rig;
use crate::workload::{compressible_data, fill_list, hot_cold_pick, rng};

struct Phase {
    avg_read_us: f64,
    avg_seek_us: f64,
    hot_segments: usize,
}

fn measure_reads(
    ld: &mut Lld<SimDisk>,
    bids: &[ld_core::Bid],
    hot: usize,
    reads: usize,
    seed: u64,
) -> Phase {
    let mut r = rng(seed);
    let mut buf = vec![0u8; 4096];
    let stats0 = *ld.disk().stats();
    let t0 = ld.disk().now_us();
    for _ in 0..reads {
        let idx = hot_cold_pick(&mut r, hot, bids.len());
        // Hot blocks are every Nth of the id space, so the hot set is
        // physically scattered before the rearrangement.
        let spread_idx = (idx * (bids.len() / hot).max(1)) % bids.len();
        ld.read(bids[spread_idx], &mut buf).expect("read");
    }
    let elapsed = ld.disk().now_us() - t0;
    let stats = ld
        .disk()
        .stats()
        .delta_since(&stats0)
        .expect("same-phase snapshot");
    let hot_set: std::collections::HashSet<_> = (0..hot)
        .map(|i| (i * (bids.len() / hot).max(1)) % bids.len())
        .filter_map(|i| ld.block_segment(bids[i]))
        .collect();
    Phase {
        avg_read_us: elapsed as f64 / reads as f64,
        avg_seek_us: stats.seek_us as f64 / stats.read_ops.max(1) as f64,
        hot_segments: hot_set.len(),
    }
}

/// Runs the before/after comparison.
pub fn run(opts: super::Opts) -> Report {
    let (disk_bytes, nblocks, reads) = if opts.quick {
        (64u64 << 20, 2_000usize, 2_000usize)
    } else {
        (rig::PARTITION_BYTES, 16_000, 8_000)
    };
    let mut ld = Lld::format(rig::disk_sized(disk_bytes), rig::lld_config()).expect("format");
    let bids = fill_list(&mut ld, nblocks, Some(&compressible_data(4096, 0x807)));
    ld.flush(FailureSet::PowerFailure).expect("flush");
    let hot = nblocks / 10;
    let before = measure_reads(&mut ld, &bids, hot, reads, 1);
    let moved = ld.reorganize_hot(hot + hot / 4).expect("reorganize_hot");
    let after = measure_reads(&mut ld, &bids, hot, reads, 2);

    let mut t = Table::new(
        "",
        [
            col("phase", "phase", ""),
            col("avg read (ms)", "avg_read_ms", "ms"),
            col("avg seek (ms)", "avg_seek_ms", "ms"),
            col("hot-set segments", "hot_segments", ""),
        ],
    );
    for (label, p) in [
        ("before rearrangement", before),
        ("after rearrangement", after),
    ] {
        t.row([
            label.into(),
            num(p.avg_read_us / 1000.0, 2),
            num(p.avg_seek_us / 1000.0, 2),
            (p.hot_segments as u64).into(),
        ]);
    }
    let mut report = Report::new("hotcold", opts.quick);
    report
        .value("blocks_moved", u64::from(moved))
        .note(format!(
            "E15: adaptive block rearrangement — {nblocks} blocks, 90/10 skewed reads,\n\
             {hot} hot blocks collected by reorganize_hot ({moved} moved)\n\
             (Akyürek & Salem: reorganizing by reference frequency cuts seek\n\
             times by more than half)\n\n"
        ))
        .table(t);
    report
}

crate::claims::quick_test!(rearrangement_cuts_seek_time, "hotcold");
