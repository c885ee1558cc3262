//! The paper's claims, one statement each, checked against the report of
//! the experiment that measures them.
//!
//! Most of the evaluation (§4.2, §5) states relations rather than cell
//! values: MINIX LLD writes several times faster than MINIX, 64 KB
//! segments lose write throughput, LLD recovers at least 10x faster than
//! Loge. Each such relation is one `Claim`: an id, the paper section, the
//! experiment, and a predicate over that experiment's `Report`. A
//! predicate reads cells through `Cells`, which picks a row by its label
//! cells and a value by its JSON key (`Report::cell`); a missing row or
//! key fails the claim, so a typo cannot make a claim vacuous.
//!
//! `repro` checks the claims of every experiment it runs, at whatever
//! scale it runs them, and each experiment's claim test (`quick_test!`)
//! checks them at quick scale.

use std::cell::RefCell;

use crate::report::{show_row, Report};

/// A row selector: `(JSON key, cell text)` pairs that pick one row.
type Row = &'static [(&'static str, &'static str)];

/// One claim of the paper.
pub(crate) struct Claim {
    /// `E<n>.<what it says>`, unique.
    pub(crate) id: &'static str,
    /// Where the paper makes it.
    pub(crate) section: &'static str,
    /// The `repro` name of the experiment whose report it reads.
    pub(crate) experiment: &'static str,
    /// Whether it holds; `Err` when a cell it reads is missing.
    holds: fn(&Cells) -> Result<bool, String>,
}

impl Claim {
    /// Evaluates the claim on `report`; the error names the claim, its
    /// experiment, and every row and key it read.
    pub(crate) fn check(&self, report: &Report) -> Result<(), String> {
        let cells = Cells {
            report,
            read: RefCell::new(Vec::new()),
        };
        let head = format!("claim {} ({}, {})", self.id, self.section, self.experiment);
        match (self.holds)(&cells) {
            Ok(true) => Ok(()),
            Ok(false) => Err(format!("{head} failed: {}", cells.read.borrow().join("; "))),
            Err(missing) => Err(format!("{head} cannot be read: {missing}")),
        }
    }
}

/// A claim's view of a report: every cell read is remembered, so a claim
/// that fails can name what it saw.
pub(crate) struct Cells<'a> {
    report: &'a Report,
    read: RefCell<Vec<String>>,
}

impl Cells<'_> {
    /// The number under `key` in `row` (an empty `row`: the top-level
    /// value `key`).
    pub(crate) fn num(&self, row: &[(&str, &str)], key: &str) -> Result<f64, String> {
        let v = self
            .report
            .cell(row, key)?
            .number()
            .ok_or_else(|| format!("{} key {key} is not a number", show_row(row)))?;
        self.read
            .borrow_mut()
            .push(format!("{} key {key} = {v}", show_row(row)));
        Ok(v)
    }

    /// The cell under `key` in `row` as the text table shows it.
    pub(crate) fn text(&self, row: &[(&str, &str)], key: &str) -> Result<String, String> {
        let s = self.report.cell(row, key)?.text();
        self.read
            .borrow_mut()
            .push(format!("{} key {key} = {s:?}", show_row(row)));
        Ok(s)
    }
}

/// Checks every claim about `experiment` against its `report`; one
/// message per claim that does not hold.
pub fn check(experiment: &str, report: &Report) -> Vec<String> {
    CLAIMS
        .iter()
        .filter(|c| c.experiment == experiment)
        .filter_map(|c| c.check(report).err())
        .collect()
}

/// Runs `experiment` at quick scale and panics with every claim about it
/// that does not hold.
#[cfg(test)]
pub(crate) fn assert_quick(experiment: &str) {
    let (_, _, _, run) = crate::exp::EXPERIMENTS
        .iter()
        .find(|e| e.0 == experiment)
        .expect("a repro experiment");
    let report = run(crate::exp::Opts {
        quick: true,
        ..Default::default()
    });
    let broken = check(experiment, &report);
    assert!(broken.is_empty(), "{}", broken.join("\n"));
}

const fn claim(
    id: &'static str,
    section: &'static str,
    experiment: &'static str,
    holds: fn(&Cells) -> Result<bool, String>,
) -> Claim {
    Claim {
        id,
        section,
        experiment,
        holds,
    }
}

/// Declares an experiment module's claim test, `tests::$name`: every claim
/// about `$experiment` holds at quick scale. Items after a `;` join the
/// same `tests` module, which sees the experiment module's names.
macro_rules! quick_test {
    ($name:ident, $experiment:literal $(; $($extra:item)*)?) => {
        #[cfg(test)]
        mod tests {
            #[allow(unused_imports)]
            use super::*;

            #[test]
            fn $name() {
                $crate::claims::assert_quick($experiment);
            }

            $($($extra)*)?
        }
    };
}
pub(crate) use quick_test;

/// Whether `v` shows as `paper` when rounded to `decimals`.
fn rounds_to(v: f64, paper: f64, decimals: i32) -> bool {
    (v - paper).abs() < 0.5 * 10f64.powi(-decimals)
}

const MB: f64 = (1 << 20) as f64;

/// Table 4's 1-Kbyte-file rows.
const LLD_1K: Row = &[("file_bytes", "1024"), ("fs", "MINIX LLD")];
const MINIX_1K: Row = &[("file_bytes", "1024"), ("fs", "MINIX")];
const SUNOS_1K: Row = &[("file_bytes", "1024"), ("fs", "SunOS")];

/// Table 5's rows.
const LLD: Row = &[("fs", "MINIX LLD")];
const MINIX: Row = &[("fs", "MINIX")];
const SUNOS: Row = &[("fs", "SunOS")];

/// Table 3's four cells in the `ram` row round to `paper`'s.
fn cost_matches(c: &Cells, ram: &str, paper: [f64; 4]) -> Result<bool, String> {
    let keys = [
        "disk_750_best_pct",
        "disk_750_worst_pct",
        "disk_1500_best_pct",
        "disk_1500_worst_pct",
    ];
    for (key, paper) in keys.into_iter().zip(paper) {
        if !rounds_to(c.num(&[("ram_price", ram)], key)?, paper, 0) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Table 6's overwrite rows.
const OVERWRITES: [Row; 3] = [
    &[("operation", "overwrite, direct")],
    &[("operation", "overwrite, indirect")],
    &[("operation", "overwrite, dbl-indirect")],
];

const PACKED: Row = &[("variant", "packed i-node blocks")];
const SMALL: Row = &[("variant", "64-byte i-node blocks")];
const PLAIN: Row = &[("configuration", "no compression")];
const COMPRESSED: Row = &[("configuration", "compression")];
const NO_NVRAM: Row = &[("nvram_kb", "0")];
const HALF_MB_NVRAM: Row = &[("nvram_kb", "512")];
const BEFORE: Row = &[("phase", "before rearrangement")];
const AFTER: Row = &[("phase", "after rearrangement")];
const AT_50_PCT: Row = &[("threshold_pct", "50%")];
const AT_90_PCT: Row = &[("threshold_pct", "90%")];
const TOP_RATE: Row = &[("transient_ppm", "20000")];

/// Every claim, grouped by experiment in `repro all` order.
#[rustfmt::skip]
pub(crate) static CLAIMS: &[Claim] = &[
    claim("E12.segment-writes-near-2400", "§4.2", "calibrate", |c| {
        let row = &[("measurement", "0.5 MB sequential writes (KB/s)")];
        Ok((2100.0..2700.0).contains(&c.num(row, "simulated")?))
    }),
    claim("E1.cells-match-paper", "§2.3", "table2", |c| {
        let mb = |structure, key| Ok::<_, String>(c.num(&[("structure", structure)], key)? / MB);
        let per_file = mb("Block-number map", "compression_per_file_bytes")?;
        Ok(rounds_to(mb("Block-number map", "single_list_bytes")?, 1.5, 1)
            && (rounds_to(per_file, 3.8, 1) || rounds_to(per_file, 3.7, 1))
            && c.num(&[("structure", "List table")], "single_list_bytes")? == 4.0
            && rounds_to(mb("Total", "compression_per_file_bytes")?, 4.6, 1))
    }),
    claim("E2.cells-match-paper", "§2.3", "table3", |c| {
        Ok(cost_matches(c, "$30", [6.0, 18.0, 3.0, 9.0])?
            && cost_matches(c, "$50", [10.0, 31.0, 5.0, 15.0])?)
    }),
    claim("E3.lld-creates-beat-minix", "§4.2", "table4",
        |c| Ok(c.num(LLD_1K, "create_per_s")? > 1.5 * c.num(MINIX_1K, "create_per_s")?)),
    claim("E3.minix-creates-beat-sunos", "§4.2", "table4",
        |c| Ok(c.num(MINIX_1K, "create_per_s")? > 2.0 * c.num(SUNOS_1K, "create_per_s")?)),
    claim("E3.lld-deletes-beat-sunos", "§4.2", "table4",
        |c| Ok(c.num(LLD_1K, "delete_per_s")? > 2.0 * c.num(SUNOS_1K, "delete_per_s")?)),
    claim("E3.minix-variants-read-alike", "§4.2", "table4", |c| {
        let ratio = c.num(LLD_1K, "read_per_s")? / c.num(MINIX_1K, "read_per_s")?;
        Ok((0.5..=2.0).contains(&ratio))
    }),
    claim("E4.lld-seq-write-3x-minix", "§4.2", "table5",
        |c| Ok(c.num(LLD, "write_seq")? > 3.0 * c.num(MINIX, "write_seq")?)),
    claim("E4.lld-random-write-3x-minix", "§4.2", "table5",
        |c| Ok(c.num(LLD, "write_rand")? > 3.0 * c.num(MINIX, "write_rand")?)),
    claim("E4.lld-seq-write-uses-the-bandwidth", "§4.2", "table5",
        |c| Ok(c.num(LLD, "write_seq")? > 1500.0)),
    claim("E4.minix-seq-write-rotation-bound", "§4.2", "table5",
        |c| Ok((150.0..600.0).contains(&c.num(MINIX, "write_seq")?))),
    claim("E4.minix-seq-read-beats-lld", "§4.2", "table5",
        |c| Ok(c.num(MINIX, "read_seq")? > c.num(LLD, "read_seq")?)),
    claim("E4.lld-random-read-beats-minix", "§4.2", "table5",
        |c| Ok(c.num(LLD, "read_rand")? > c.num(MINIX, "read_rand")?)),
    claim("E4.minix-reread-beats-lld", "§4.2", "table5",
        |c| Ok(c.num(MINIX, "reread_seq")? > c.num(LLD, "reread_seq")?)),
    claim("E4.sunos-seq-write-beats-minix", "§4.2", "table5",
        |c| Ok(c.num(SUNOS, "write_seq")? > c.num(MINIX, "write_seq")?)),
    claim("E4.sunos-seq-read-beats-lld", "§4.2", "table5",
        |c| Ok(c.num(SUNOS, "read_seq")? > c.num(LLD, "read_seq")?)),
    claim("E4.lld-random-write-beats-sunos", "§4.2", "table5",
        |c| Ok(c.num(LLD, "write_rand")? > c.num(SUNOS, "write_rand")?)),
    claim("E5.lld-overwrite-costs-one-block", "§5.1", "table6", |c| {
        for row in OVERWRITES {
            if c.num(row, "lld_total")? >= 1.3 {
                return Ok(false);
            }
        }
        Ok(true)
    }),
    claim("E5.sprite-overwrite-costs-more", "§5.1", "table6", |c| {
        for row in OVERWRITES {
            if c.num(row, "sprite_total")? <= c.num(row, "lld_total")? {
                return Ok(false);
            }
        }
        Ok(true)
    }),
    claim("E6.summary-sweep-dominates-recovery", "§4.2", "recovery", |c| {
        let sweep = c.num(&[("quantity", "LD sweep time (s)")], "measured")?;
        Ok(sweep >= 0.9 * c.num(&[("quantity", "LD + MINIX total (s)")], "measured")?)
    }),
    claim("E7.lists-slow-creates", "§4.2", "lists",
        |c| Ok((2.0..45.0).contains(&c.num(&[("phase", "create")], "overhead_pct")?))),
    claim("E7.lists-leave-reads-alone", "§4.2", "lists",
        |c| Ok(c.num(&[("phase", "read")], "overhead_pct")?.abs() < 10.0)),
    claim("E8.128kb-segments-within-12pct-of-512kb", "§4.2", "segsize",
        |c| Ok(c.num(&[("segment_kb", "128")], "vs_512kb_pct")?.abs() < 12.0)),
    claim("E8.64kb-segments-lose-writes", "§4.2", "segsize",
        |c| Ok((5.0..45.0).contains(&-c.num(&[("segment_kb", "64")], "vs_512kb_pct")?))),
    claim("E9.small-inodes-keep-large-file-writes", "§4.2", "inodes", |c| {
        let packed = c.num(PACKED, "write_seq")?;
        Ok((packed - c.num(SMALL, "write_seq")?).abs() / packed < 0.05)
    }),
    claim("E9.small-inodes-slow-small-file-reads", "§4.2", "inodes",
        |c| Ok(c.num(PACKED, "read_per_s")? > c.num(SMALL, "read_per_s")?)),
    claim("E10.stored-size-near-60pct", "§4.2", "compression",
        |c| Ok((40.0..70.0).contains(&c.num(&[], "stored_pct")?))),
    claim("E10.compression-costs-writes-under-45pct", "§4.2", "compression", |c| {
        let (plain, comp) = (c.num(PLAIN, "write_kb_s")?, c.num(COMPRESSED, "write_kb_s")?);
        Ok(comp < plain && comp > 0.55 * plain)
    }),
    claim("E10.compression-costs-reads-over-20pct", "§4.2", "compression",
        |c| Ok(c.num(COMPRESSED, "read_kb_s")? < 0.8 * c.num(PLAIN, "read_kb_s")?)),
    claim("E10.compressed-writes-near-1600", "§4.2", "compression",
        |c| Ok((1100.0..2100.0).contains(&c.num(COMPRESSED, "write_kb_s")?))),
    claim("E10.compressed-reads-near-800", "§4.2", "compression",
        |c| Ok((500.0..1100.0).contains(&c.num(COMPRESSED, "read_kb_s")?))),
    claim("E11.logs-beat-update-in-place", "§5.2", "loge", |c| {
        let writes = |system| c.num(&[("system", system)], "random_write_kb_s");
        let in_place = writes("update-in-place")?;
        Ok(writes("Loge")? > in_place && writes("LLD")? > in_place)
    }),
    claim("E11.lld-recovers-10x-faster", "§5.2", "loge",
        |c| Ok(c.num(&[], "recovery_ratio")? >= 10.0)),
    claim("E14.no-nvram-writes-partials", "§5.3", "nvram",
        |c| Ok(c.num(NO_NVRAM, "partial_segment_writes")? > 0.0)),
    claim("E14.half-mb-absorbs-every-partial", "§5.3", "nvram", |c| {
        Ok(c.num(HALF_MB_NVRAM, "partial_segment_writes")? == 0.0
            && c.num(HALF_MB_NVRAM, "nvram_saves")? > 0.0)
    }),
    claim("E14.half-mb-cuts-disk-ops", "§5.3", "nvram",
        |c| Ok(1.0 - c.num(HALF_MB_NVRAM, "disk_ops")? / c.num(NO_NVRAM, "disk_ops")? > 0.10)),
    claim("E14.half-mb-speeds-files", "§5.3", "nvram",
        |c| Ok(c.num(HALF_MB_NVRAM, "files_per_s")? > c.num(NO_NVRAM, "files_per_s")?)),
    claim("E15.rearrangement-cuts-seek-time", "§5.3", "hotcold",
        |c| Ok(c.num(AFTER, "avg_seek_ms")? < 0.6 * c.num(BEFORE, "avg_seek_ms")?)),
    claim("E15.rearrangement-speeds-reads", "§5.3", "hotcold",
        |c| Ok(c.num(AFTER, "avg_read_ms")? < c.num(BEFORE, "avg_read_ms")?)),
    claim("E15.rearrangement-gathers-the-hot-set", "§5.3", "hotcold",
        |c| Ok(c.num(AFTER, "hot_segments")? < c.num(BEFORE, "hot_segments")?)),
    claim("E13.cost-benefit-within-10pct-of-greedy", "§3.5", "ablate", |c| {
        let amplification = |policy| c.num(&[("policy", policy)], "write_amplification");
        Ok(amplification("cost-benefit")? <= amplification("greedy")? * 1.10)
    }),
    claim("E13.higher-threshold-more-partials", "§3.2", "ablate",
        |c| Ok(c.num(AT_90_PCT, "partial_writes")? >= c.num(AT_50_PCT, "partial_writes")?)),
    claim("E13.lower-threshold-more-seals", "§3.2", "ablate",
        |c| Ok(c.num(AT_50_PCT, "seals")? >= c.num(AT_90_PCT, "seals")?)),
    claim("E16.lld-survives-the-top-rate", "§4.2", "faults",
        |c| Ok(c.num(TOP_RATE, "lld_files_per_s")? > 0.0)),
    claim("E16.minix-aborts-at-the-top-rate", "§4.2", "faults",
        |c| Ok(c.text(TOP_RATE, "minix_files_per_s")?.starts_with("failed"))),
    claim("E16.scrub-retires-latent-sectors", "§4.2", "faults", |c| {
        Ok(c.num(&[("quantity", "sectors retired to remap table")], "value")? > 0.0
            && c.num(&[("quantity", "read retries spent")], "value")? > 0.0)
    }),
    claim("E16.scrub-loses-no-file", "§4.2", "faults", |c| {
        Ok(c.num(&[("quantity", "unreadable blocks")], "value")? == 0.0
            && c.num(&[("quantity", "files intact (of 180)")], "value")? == 180.0)
    }),
    claim("E16.scrubbed-image-passes-ldck", "§4.2", "faults", |c| {
        let retired = c.num(&[("quantity", "sectors retired to remap table")], "value")?;
        let ldck = c.text(&[("quantity", "ldck on final image")], "value")?;
        Ok(ldck == format!("clean, {retired} remap entries"))
    }),
    claim("E17.deep-queue-beats-fcfs-at-depth-1", "§4.2", "queueing", |c| {
        let kb_per_s =
            |scheduler, depth| c.num(&[("scheduler", scheduler), ("depth", depth)], "kb_per_s");
        Ok(kb_per_s("look", "4")?.max(kb_per_s("satf", "8")?) > 1.02 * kb_per_s("fcfs", "1")?)
    }),
    claim("E17.depth-1-matches-the-direct-path", "§4.2", "queueing", |c| {
        const OFF: Row = &[("scheduler", "fcfs"), ("depth", "0")];
        const ONE: Row = &[("scheduler", "fcfs"), ("depth", "1")];
        Ok(c.num(OFF, "kb_per_s")?.to_bits() == c.num(ONE, "kb_per_s")?.to_bits()
            && c.num(OFF, "segments_cleaned")? == c.num(ONE, "segments_cleaned")?
            && c.num(OFF, "recovery_s")?.to_bits() == c.num(ONE, "recovery_s")?.to_bits())
    }),
    claim("E17.queued-sweep-recovers-faster", "§3.6", "queueing", |c| {
        let recovery_s =
            |scheduler, depth| c.num(&[("scheduler", scheduler), ("depth", depth)], "recovery_s");
        Ok(recovery_s("satf", "8")? < recovery_s("fcfs", "0")?)
    }),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exp::EXPERIMENTS;
    use crate::report::{col, json_col, num, with_suffix, Table};

    fn claim(id: &str) -> &'static Claim {
        CLAIMS.iter().find(|c| c.id == id).expect("a claim")
    }

    /// A `segsize` report holding `(segment KB, change vs 512 KB)` rows.
    fn segsize_report(rows: &[(u64, f64)]) -> Report {
        let mut t = Table::new(
            "",
            [json_col("segment_kb", "KB"), col("", "vs_512kb_pct", "%")],
        );
        for &(kb, pct) in rows {
            t.row([kb.into(), with_suffix(pct, 0, "%")]);
        }
        let mut r = Report::new("segsize", true);
        r.table(t);
        r
    }

    #[test]
    fn a_value_past_its_bound_fails_naming_claim_row_and_key() {
        let c = claim("E8.64kb-segments-lose-writes");
        assert_eq!(c.check(&segsize_report(&[(64, -5.0)])), Ok(()));
        let msg = c
            .check(&segsize_report(&[(64, -4.99)]))
            .expect_err("below the bound");
        let want = "claim E8.64kb-segments-lose-writes (§4.2, segsize) failed: \
                    row [segment_kb=64] key vs_512kb_pct = -4.99";
        assert_eq!(msg, want);

        let mut r = Report::new("loge", true);
        r.value("recovery_ratio", num(9.9, 0));
        let msg = claim("E11.lld-recovers-10x-faster")
            .check(&r)
            .expect_err("below the bound");
        assert!(
            msg.ends_with("(§5.2, loge) failed: value key recovery_ratio = 9.9"),
            "{msg}"
        );
    }

    #[test]
    fn a_missing_row_or_key_fails_the_claim() {
        let c = claim("E8.128kb-segments-within-12pct-of-512kb");
        let msg = c
            .check(&segsize_report(&[(64, -10.0)]))
            .expect_err("no 128 KB row");
        assert!(
            msg.ends_with("no row [segment_kb=128] has key vs_512kb_pct"),
            "{msg}"
        );
        let c = claim("E11.lld-recovers-10x-faster");
        let msg = c.check(&segsize_report(&[])).expect_err("no such value");
        assert!(msg.ends_with("no value has key recovery_ratio"), "{msg}");
        // A selector that matches two rows is as broken as one that
        // matches none.
        let c = claim("E8.64kb-segments-lose-writes");
        let msg = c
            .check(&segsize_report(&[(64, -10.0), (64, -10.0)]))
            .expect_err("ambiguous");
        assert!(
            msg.ends_with("2 rows match row [segment_kb=64] with key vs_512kb_pct"),
            "{msg}"
        );
    }

    #[test]
    fn ids_are_unique_and_every_experiment_has_a_claim() {
        let ids: std::collections::BTreeSet<&str> = CLAIMS.iter().map(|c| c.id).collect();
        assert_eq!(ids.len(), CLAIMS.len(), "duplicate claim ids");
        for (name, ..) in EXPERIMENTS {
            assert!(
                CLAIMS.iter().any(|c| c.experiment == *name),
                "experiment {name} has no claim"
            );
        }
        // Each claim names a known experiment, under its E-number.
        for c in CLAIMS {
            let number = EXPERIMENTS
                .iter()
                .find(|e| e.0 == c.experiment)
                .map(|e| e.1);
            assert_eq!(c.id.split('.').next(), number, "{}", c.id);
        }
    }
}
