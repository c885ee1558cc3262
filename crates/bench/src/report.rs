//! Experiment results as data. Each experiment returns one [`Report`]:
//! titled tables of typed cells plus free-text notes. It renders once as
//! the aligned text `repro` prints and once as the JSON `repro --json-out`
//! writes, so the two can never disagree.

use std::fmt::Write as _;

/// One table cell.
#[derive(Debug)]
pub enum Cell {
    /// A number `v`, shown in text with `prec` decimals, a `+` on
    /// non-negative values when `signed` (a relative change), and then
    /// `suffix` (such as `%` or `x`). JSON keeps one decimal more, so a
    /// baseline diff sees changes too small to show in the table. NaN is
    /// an undefined rate: `-` in text, `null` in JSON.
    Num {
        v: f64,
        prec: usize,
        signed: bool,
        suffix: &'static str,
    },
    /// An exact count.
    Int(u64),
    /// A label, verdict, or composite of several numbers.
    Text(String),
}

impl Cell {
    /// The cell's value as a number; `None` for text.
    pub(crate) fn number(&self) -> Option<f64> {
        match self {
            Cell::Num { v, .. } => Some(*v),
            Cell::Int(n) => Some(*n as f64),
            Cell::Text(_) => None,
        }
    }

    /// The cell as the text table shows it.
    pub(crate) fn text(&self) -> String {
        match self {
            Cell::Num { v, .. } if v.is_nan() => "-".to_string(),
            Cell::Num {
                v,
                prec,
                signed: true,
                suffix,
            } => format!("{v:+.prec$}{suffix}"),
            Cell::Num {
                v, prec, suffix, ..
            } => format!("{v:.prec$}{suffix}"),
            Cell::Int(n) => n.to_string(),
            Cell::Text(s) => s.clone(),
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Num { v, .. } if !v.is_finite() => "null".to_string(),
            Cell::Num { v, prec, .. } => format!("{v:.p$}", p = prec + 1),
            Cell::Int(n) => n.to_string(),
            Cell::Text(s) => json_str(s),
        }
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Self {
        Cell::Int(n)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Text(s)
    }
}

/// A number with `prec` decimals.
pub fn num(v: f64, prec: usize) -> Cell {
    Cell::Num {
        v,
        prec,
        signed: false,
        suffix: "",
    }
}

/// A rate (KB/s, files/s): a whole number, `-` when undefined.
pub fn rate(v: f64) -> Cell {
    num(v, 0)
}

/// A microsecond duration, shown as seconds with two decimals.
pub fn secs(us: u64) -> Cell {
    num(us as f64 / 1e6, 2)
}

/// A number followed by a unit symbol, such as `12.5%` or `1.24x`.
pub fn with_suffix(v: f64, prec: usize, suffix: &'static str) -> Cell {
    Cell::Num {
        v,
        prec,
        signed: false,
        suffix,
    }
}

/// A relative change in whole percent, with its sign: `+0%`, `-14%`.
pub fn change_pct(v: f64) -> Cell {
    Cell::Num {
        v,
        prec: 0,
        signed: true,
        suffix: "%",
    }
}

/// A table column: its text header, its JSON key and the unit of its
/// numbers. An empty header keeps the column out of the text table (a
/// number the text shows inside a composite cell); an empty key keeps it
/// out of the JSON (that composite cell).
#[derive(Debug, Clone, Copy)]
pub struct Col {
    head: &'static str,
    key: &'static str,
    unit: &'static str,
}

/// A column shown in both renderings.
pub const fn col(head: &'static str, key: &'static str, unit: &'static str) -> Col {
    Col { head, key, unit }
}

/// A column shown only in the text table.
pub const fn text_col(head: &'static str) -> Col {
    col(head, "", "")
}

/// A column written only to JSON.
pub const fn json_col(key: &'static str, unit: &'static str) -> Col {
    col("", key, unit)
}

/// A table of `N` columns. Every row is an array of exactly `N` cells, so
/// a row of the wrong width does not compile.
#[derive(Debug)]
pub struct Table<const N: usize>(Grid);

impl<const N: usize> Table<N> {
    /// An empty table; a non-empty `title` is printed on the line(s)
    /// above it.
    pub fn new(title: impl Into<String>, cols: [Col; N]) -> Self {
        Self(Grid {
            title: title.into(),
            cols: cols.to_vec(),
            rows: Vec::new(),
        })
    }

    /// Appends a row.
    pub fn row(&mut self, cells: [Cell; N]) -> &mut Self {
        self.0.rows.push(Vec::from(cells));
        self
    }
}

/// A [`Table`] with its width erased, as a [`Report`] holds it.
#[derive(Debug)]
struct Grid {
    title: String,
    cols: Vec<Col>,
    rows: Vec<Vec<Cell>>,
}

impl Grid {
    /// Indices of the columns `keep` selects.
    fn columns(&self, keep: fn(&Col) -> bool) -> Vec<usize> {
        (0..self.cols.len())
            .filter(|&i| keep(&self.cols[i]))
            .collect()
    }

    /// Aligned columns: the first left-aligned, the rest right-aligned.
    /// A zero-column table renders as an empty header and separator.
    fn text(&self) -> String {
        let shown = self.columns(|c| !c.head.is_empty());
        let header: Vec<String> = shown
            .iter()
            .map(|&i| self.cols[i].head.to_string())
            .collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| shown.iter().map(|&i| r[i].text()).collect())
            .collect();
        let mut width: Vec<usize> = header.iter().map(String::len).collect();
        for row in &rows {
            for (w, c) in width.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, (c, w)) in cells.iter().zip(&width).enumerate() {
                if i == 0 {
                    let _ = write!(out, "{c:<w$}");
                } else {
                    let _ = write!(out, "  {c:>w$}");
                }
            }
            out.trim_end().to_string() + "\n"
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out = format!("{}\n", self.title);
        }
        out.push_str(&line(&header));
        let rule = width.iter().sum::<usize>() + 2 * width.len().saturating_sub(1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &rows {
            out.push_str(&line(row));
        }
        out
    }

    /// One object per table; each row is one line of `"key": value` pairs.
    fn json(&self) -> String {
        let keyed = self.columns(|c| !c.key.is_empty());
        let pairs = |pick: &dyn Fn(usize) -> Option<String>| {
            keyed
                .iter()
                .filter_map(|&i| Some(format!("{}: {}", json_str(self.cols[i].key), pick(i)?)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let unit = |i: usize| {
            Some(self.cols[i].unit)
                .filter(|u| !u.is_empty())
                .map(json_str)
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| format!("        {{{}}}", pairs(&|i| Some(r[i].json()))))
            .collect();
        format!(
            "    {{\n      \"title\": {},\n      \"units\": {{{}}},\n      \"rows\": {}\n    }}",
            json_str(self.title.trim()),
            pairs(&unit),
            json_list(&rows, "      "),
        )
    }
}

/// One piece of a report, in text order.
#[derive(Debug)]
enum Part {
    Note(String),
    Table(Grid),
}

/// The result of one experiment.
#[derive(Debug, Default)]
pub struct Report {
    id: &'static str,
    quick: bool,
    values: Vec<(&'static str, Cell)>,
    parts: Vec<Part>,
}

impl Report {
    /// An empty report for experiment `id` (the `BENCH_<id>.json` name).
    pub fn new(id: &'static str, quick: bool) -> Self {
        Self {
            id,
            quick,
            ..Self::default()
        }
    }

    /// Appends free text, printed verbatim (with its own newlines) in
    /// text and trimmed into `notes` in JSON.
    pub fn note(&mut self, text: impl Into<String>) -> &mut Self {
        self.parts.push(Part::Note(text.into()));
        self
    }

    /// Appends a table.
    pub fn table<const N: usize>(&mut self, t: Table<N>) -> &mut Self {
        self.parts.push(Part::Table(t.0));
        self
    }

    /// Records a scalar result under a top-level JSON key. Text shows it
    /// only where a note spells it out.
    pub fn value(&mut self, key: &'static str, v: impl Into<Cell>) -> &mut Self {
        self.values.push((key, v.into()));
        self
    }

    /// The cell under JSON key `key` in the one table row that has that
    /// key and whose cells match every `(key, text)` pair of `row`, each
    /// compared with the cell's text rendering. An empty `row` picks the
    /// top-level value `key` instead. No match, or several, is an error
    /// that names the row and the key.
    pub(crate) fn cell(&self, row: &[(&str, &str)], key: &str) -> Result<&Cell, String> {
        let mut hits = Vec::new();
        if row.is_empty() {
            hits.extend(
                self.values
                    .iter()
                    .filter(|(k, _)| *k == key)
                    .map(|(_, v)| v),
            );
        }
        for part in &self.parts {
            let Part::Table(g) = part else { continue };
            let col = |k: &str| g.cols.iter().position(|c| !k.is_empty() && c.key == k);
            let Some(at) = col(key).filter(|_| !row.is_empty()) else {
                continue;
            };
            hits.extend(
                g.rows
                    .iter()
                    .filter(|r| {
                        row.iter()
                            .all(|&(k, v)| col(k).is_some_and(|i| r[i].text() == v))
                    })
                    .map(|r| &r[at]),
            );
        }
        match hits[..] {
            [one] => Ok(one),
            [] => Err(format!("no {} has key {key}", show_row(row))),
            _ => Err(format!(
                "{} rows match {} with key {key}",
                hits.len(),
                show_row(row)
            )),
        }
    }

    /// The rendered text report.
    pub fn text(&self) -> String {
        self.parts
            .iter()
            .map(|p| match p {
                Part::Note(s) => s.clone(),
                Part::Table(g) => g.text(),
            })
            .collect()
    }

    /// The JSON document: the scalars, then the tables, then the notes
    /// (after the rows, so a line search for a row finds the row first).
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\n  \"experiment\": {},\n  \"quick\": {},\n",
            json_str(self.id),
            self.quick
        );
        for (key, v) in &self.values {
            let _ = writeln!(out, "  {}: {},", json_str(key), v.json());
        }
        let (mut tables, mut notes) = (Vec::new(), Vec::new());
        for part in &self.parts {
            match part {
                Part::Table(g) => tables.push(g.json()),
                Part::Note(s) if !s.trim().is_empty() => {
                    notes.push(format!("    {}", json_str(s.trim())));
                }
                Part::Note(_) => {}
            }
        }
        let (tables, notes) = (json_list(&tables, "  "), json_list(&notes, "  "));
        let _ = write!(out, "  \"tables\": {tables},\n  \"notes\": {notes}\n}}\n");
        out
    }
}

/// A row selector for messages: `row [fs=MINIX LLD]`, or `value` for
/// the top-level values.
pub(crate) fn show_row(row: &[(&str, &str)]) -> String {
    let pairs: Vec<String> = row.iter().map(|(k, v)| format!("{k}={v}")).collect();
    match row {
        [] => "value".to_string(),
        _ => format!("row [{}]", pairs.join(", ")),
    }
}

/// A JSON array of rendered `items`, one per line, closed at `indent`.
fn json_list(items: &[String], indent: &str) -> String {
    if items.is_empty() {
        return "[]".to_string();
    }
    format!("[\n{}\n{indent}]", items.join(",\n"))
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Computes KB/s from bytes moved in a simulated interval. A zero-length
/// interval has no meaningful rate and yields NaN ([`rate`] renders it
/// as `-`), distinct from a measured rate of zero.
pub fn kb_per_s(bytes: u64, us: u64) -> f64 {
    if us == 0 {
        return f64::NAN;
    }
    (bytes as f64 / 1024.0) / (us as f64 / 1e6)
}

/// Computes operations/second; NaN when no time elapsed (see [`kb_per_s`]).
pub fn ops_per_s(ops: u64, us: u64) -> f64 {
    if us == 0 {
        return f64::NAN;
    }
    ops as f64 / (us as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_of<const N: usize>(t: Table<N>) -> Report {
        let mut r = Report::new("t", true);
        r.table(t);
        r
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(
            "",
            [col("name", "", ""), col("v1", "", ""), col("v2", "", "")],
        );
        t.row(["alpha".into(), 1.into(), 22.into()])
            .row(["b".into(), 333.into(), 4.into()]);
        let s = report_of(t).text();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("alpha"));
        // Right alignment of numeric columns.
        assert!(lines[3].ends_with("333   4"));
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(secs(1_500_000).text(), "1.50");
        assert_eq!(change_pct(-13.6).text(), "-14%");
        assert_eq!(change_pct(0.0).text(), "+0%");
        assert_eq!(with_suffix(1.2345, 2, "x").text(), "1.23x");
        assert_eq!(with_suffix(1.2345, 2, "x").json(), "1.234");
        assert!((kb_per_s(1 << 20, 1_000_000) - 1024.0).abs() < 1e-9);
        assert!((ops_per_s(500, 2_000_000) - 250.0).abs() < 1e-9);
    }

    // Regression: `render` used to compute `2 * (ncols - 1)` with usize
    // arithmetic, underflowing (and panicking in debug) on a table with
    // no columns.
    #[test]
    fn zero_column_table_renders() {
        let r = report_of(Table::<0>::new("", []));
        assert_eq!(r.text(), "\n\n");
        assert!(r.json().contains("\"rows\": []"));
    }

    #[test]
    fn zero_row_table_renders_in_both_formats() {
        let r = report_of(Table::new("empty", [col("a", "a", "s"), col("b", "b", "")]));
        assert_eq!(r.text(), "empty\na  b\n----\n");
        let j = r.json();
        assert!(j.contains("\"title\": \"empty\""), "{j}");
        assert!(j.contains("\"units\": {\"a\": \"s\"}"), "{j}");
        assert!(j.contains("\"rows\": []"), "{j}");
    }

    // Regression: a zero-length interval used to report a rate of 0.0,
    // indistinguishable from a genuinely zero rate.
    #[test]
    fn zero_interval_rate_is_undefined_not_zero() {
        assert!(kb_per_s(4096, 0).is_nan());
        assert!(ops_per_s(17, 0).is_nan());
        assert_eq!(rate(kb_per_s(4096, 0)).text(), "-");
        assert_eq!(rate(kb_per_s(4096, 0)).json(), "null");
        assert_eq!(rate(250.0).text(), "250");
        // A measured zero rate still renders as a number.
        assert_eq!(rate(ops_per_s(0, 1_000_000)).text(), "0");
        assert_eq!(rate(ops_per_s(0, 1_000_000)).json(), "0.0");
    }

    #[test]
    fn json_escapes_titles_and_notes() {
        let mut r = report_of(Table::new("a \"quoted\"\\path", [col("x", "x", "")]));
        r.note("line one\nline \"two\"\t\\ end\u{1}\n");
        let j = r.json();
        assert!(j.contains(r#""title": "a \"quoted\"\\path""#), "{j}");
        assert!(
            j.contains(r#""line one\nline \"two\"\t\\ end\u0001""#),
            "{j}"
        );
    }

    /// The text table and the JSON rows carry the same cells, in the same
    /// order, each at its own precision.
    #[test]
    fn text_and_json_hold_the_same_cells() {
        let mut t = Table::new(
            "t",
            [
                col("fs", "fs", ""),
                col("rate", "rate", "KB/s"),
                col("n", "n", ""),
            ],
        );
        t.row(["MINIX LLD".into(), rate(1851.96), 7.into()]).row([
            "MINIX".into(),
            rate(f64::NAN),
            0.into(),
        ]);
        let r = report_of(t);
        let text = r.text();
        let cells: Vec<Vec<&str>> = text
            .lines()
            .skip(3)
            .map(|l| l.rsplitn(3, "  ").map(str::trim).collect::<Vec<_>>())
            .collect();
        assert_eq!(cells, [["7", "1852", "MINIX LLD"], ["0", "-", "MINIX"]]);
        let json = r.json();
        assert!(
            json.contains(r#"{"fs": "MINIX LLD", "rate": 1852.0, "n": 7}"#),
            "{json}"
        );
        assert!(
            json.contains(r#"{"fs": "MINIX", "rate": null, "n": 0}"#),
            "{json}"
        );
    }

    #[test]
    fn hidden_columns_and_values() {
        let mut t = Table::new("", [text_col("shown"), json_col("hidden", "")]);
        t.row(["1 (2)".into(), 2.into()]);
        let mut r = report_of(t);
        r.value("file_mb", 80).note("heading\n\n");
        assert_eq!(r.text(), "shown\n-----\n1 (2)\nheading\n\n");
        let j = r.json();
        assert!(j.contains("  \"file_mb\": 80,\n"), "{j}");
        assert!(j.contains("{\"hidden\": 2}"), "{j}");
        assert!(
            j.ends_with("  \"notes\": [\n    \"heading\"\n  ]\n}\n"),
            "{j}"
        );
    }
}
