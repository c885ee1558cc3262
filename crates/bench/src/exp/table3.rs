//! E2 — Table 3: "The percentage cost that LLD adds to the cost of disks
//! for different prices of main memory and disk space", for the best case
//! (1.5 MB RAM per GB) and the worst case (4.6 MB RAM per GB).

use lld::{ListGranularity, MemoryModel};

use crate::report::{col, json_col, num, text_col, Cell, Report, Table};

const GB: u64 = 1 << 30;

/// Renders Table 3.
pub fn run(opts: super::Opts) -> Report {
    let best = MemoryModel::paper(GB, 4096, 512 << 10, false, ListGranularity::SingleList);
    let worst = MemoryModel::paper(
        GB,
        4096,
        512 << 10,
        true,
        ListGranularity::PerFile {
            avg_file_bytes: 8192,
        },
    );

    // One disk price: the text cell, then the best and worst percentages.
    let cells = |ram: f64, disk_price: f64| -> [Cell; 3] {
        let b = best.cost_percentage(GB, ram, disk_price);
        let w = worst.cost_percentage(GB, ram, disk_price);
        [format!("{b:.0}% or {w:.0}%").into(), num(b, 0), num(w, 0)]
    };

    let mut t = Table::new(
        "",
        [
            col("Price of a Mbyte RAM", "ram_price", ""),
            text_col("$750 / Gbyte disk"),
            json_col("disk_750_best_pct", "%"),
            json_col("disk_750_worst_pct", "%"),
            text_col("$1500 / Gbyte disk"),
            json_col("disk_1500_best_pct", "%"),
            json_col("disk_1500_worst_pct", "%"),
        ],
    );
    for (label, ram) in [("$30", 30.0), ("$50", 50.0)] {
        let [a, a_best, a_worst] = cells(ram, 750.0);
        let [b, b_best, b_worst] = cells(ram, 1500.0);
        t.row([label.into(), a, a_best, a_worst, b, b_best, b_worst]);
    }

    let mut report = Report::new("table3", opts.quick);
    report
        .note(
            "E2: Table 3 — % cost LLD adds to a disk (best case or worst case)\n\
             (paper: 6%/18%, 3%/9%, 10%/31%, 5%/15%)\n\n",
        )
        .table(t);
    report
}

crate::claims::quick_test!(table3_reproduces_paper_cells, "table3");
