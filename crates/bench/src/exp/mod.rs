//! The experiments (E1–E17). Each module regenerates one paper artifact;
//! `phases` holds the two Sprite-LFS microbenchmark drivers shared by
//! several of them.

pub mod ablate;
pub mod calibrate;
pub mod compression;
pub mod faults;
pub mod hotcold;
pub mod inodes;
pub mod lists;
pub mod loge_cmp;
pub mod nvram_exp;
pub mod phases;
pub mod queueing;
pub mod recovery;
pub mod segsize;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::report::Report;

/// Global experiment options.
#[derive(Debug, Clone, Default)]
pub struct Opts {
    /// Scale down the workloads (~10×) for a fast smoke run.
    pub quick: bool,
    /// Append structured trace output (JSONL) for traced experiments to
    /// this file; `None` disables tracing entirely (the default).
    pub trace: Option<std::path::PathBuf>,
}

/// CLI name, experiment id, a one-line description with its paper-section
/// anchor, and the entry point.
pub type Experiment = (&'static str, &'static str, &'static str, fn(Opts) -> Report);

/// Every experiment, in `repro all` order; `repro --list` prints them by id.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        "calibrate",
        "E12",
        "disk-model calibration: 2400 vs ~300 KB/s raw streams (§4.2)",
        calibrate::run,
    ),
    (
        "table2",
        "E1",
        "Table 2 — LLD main memory per GB of disk (§2.3)",
        table2::run,
    ),
    (
        "table3",
        "E2",
        "Table 3 — % cost LLD adds to a disk (§2.3)",
        table3::run,
    ),
    (
        "table4",
        "E3",
        "Table 4 — small-file create/read/delete, files/s (§4.2)",
        table4::run,
    ),
    (
        "table5",
        "E4",
        "Table 5 — 80 MB large-file five-phase I/O, KB/s (§4.2)",
        table5::run,
    ),
    (
        "table6",
        "E5",
        "Table 6 — blocks written per op vs Sprite LFS (§5.1)",
        table6::run,
    ),
    (
        "recovery",
        "E6",
        "recovery time after failure: 12 s, 788 summaries (§4.2)",
        recovery::run,
    ),
    (
        "lists",
        "E7",
        "the cost of supporting lists: ~15% on create/delete (§4.2)",
        lists::run,
    ),
    (
        "segsize",
        "E8",
        "segment-size sweep: 512/256/128 KB within a few % (§4.2)",
        segsize::run,
    ),
    (
        "inodes",
        "E9",
        "small-i-node-block variant: reads worse, writes same (§4.2)",
        inodes::run,
    ),
    (
        "compression",
        "E10",
        "compression: 1600 KB/s write, 800 KB/s read (§4.2)",
        compression::run,
    ),
    (
        "loge",
        "E11",
        "Loge comparison: write streams + ≥10x faster recovery (§5.2)",
        loge_cmp::run,
    ),
    (
        "nvram",
        "E14",
        "extension: NVRAM flush absorption, Baker et al. (§5.3)",
        nvram_exp::run,
    ),
    (
        "hotcold",
        "E15",
        "extension: adaptive block rearrangement, Akyürek & Salem (§5.3)",
        hotcold::run,
    ),
    (
        "ablate",
        "E13",
        "ablations: cleaner policy, partial-segment threshold (§3.5, §3.2)",
        ablate::run,
    ),
    (
        "faults",
        "E16",
        "extension: media faults — throughput, scrub, remap (§4.2 rig)",
        faults::run,
    ),
    (
        "queueing",
        "E17",
        "command queueing: scheduler x depth sweep, write-behind (§4.2)",
        queueing::run,
    ),
];
