//! `cargo xtask` — workspace automation, dependency-free by design.
//!
//! ```text
//! cargo run -p xtask -- lint    # invariant lints over the workspace source
//! cargo run -p xtask -- ci      # fmt + build + test + examples + clippy + lint + smokes
//! cargo run -p xtask -- soak --from 0 --to 8000000 --step 1000000
//!                               # every test in release at each case offset
//! ```
//!
//! The `lint` subcommand enforces six workspace invariants that rustc and
//! clippy do not express:
//!
//! 1. **No panicking error handling in library code.** `.unwrap()`,
//!    `.expect(...)`, `panic!`, `todo!` and `unimplemented!` are forbidden in
//!    the non-test code of the core crates. Fallible paths must use typed
//!    errors; a genuine can't-happen invariant may be waived line-by-line
//!    with a `// PANIC-OK: <why it cannot fire>` comment, which keeps every
//!    remaining panic site documented and greppable. A waiver on a line
//!    with no panic is stale and reported, so the comments cannot drift
//!    from the sites they excuse. (`assert!` is allowed: precondition
//!    checks on documented panicking APIs are contracts, not error
//!    handling.)
//! 2. **No wall-clock time or OS randomness in simulation-facing crates.**
//!    The whole point of `simdisk` is a deterministic simulated clock; a
//!    host clock or an entropy-seeded RNG anywhere in the simulation stack
//!    would silently break reproducibility. The rule takes no waiver: host
//!    time is measured only by the standalone `ldperf` benchmark.
//! 3. **Layering.** File-system crates sit on the `BlockDev` abstraction;
//!    they must not reach into `simdisk` internals (stores, geometry,
//!    timing), otherwise the FS-on-LD-on-simdisk stack stops being
//!    swappable.
//! 4. **No console output from storage library code.** `println!` /
//!    `eprintln!` in the storage crates corrupts experiment output and is
//!    invisible in tests; diagnostics belong in typed errors, stats
//!    counters, or `ld-trace` events. Only CLI entry points (`main.rs`,
//!    `bin/`) may print.
//! 5. **Deterministic dispatch order in the I/O scheduler and cleaner.**
//!    The command queue promises bit-reproducible schedules (ties break by
//!    submission order), and the cleaner re-logs the records a victim's
//!    summary mentions in iteration order; a `HashMap`/`HashSet` there
//!    would let hasher state pick what reaches the disk, and when. These
//!    modules must use only ordered containers (`Vec`, `VecDeque`,
//!    `BTreeMap`, `BTreeSet`). The rule takes no waiver.
//! 6. **Every `pub fn` has a caller (unused-pub).** A `pub fn` in the
//!    library code of `crates/*/src` needs a call site somewhere in the
//!    repository: library code, tests, examples or `ldperf`. A call site
//!    is `.name(`, `name(`, `name::<` or a path `Type::name` (so
//!    `Self::name` passed as a function pointer counts), with comments
//!    stripped and the declaring `fn name` itself not counted; a variable,
//!    a field or a comment that shares the name is not a caller. A
//!    `// API-OK: <why it has no caller>` comment on the declaration, or in
//!    the comment and attribute lines directly above it, waives the
//!    finding. A waiver on a `pub fn` that has callers, or on no `pub fn`
//!    at all, is stale and reported.
//!
//! Each waiver belongs to exactly one rule: `PANIC-OK` to rule 1, `API-OK`
//! to rule 6.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Crates whose library code must be panic-free.
const PANIC_FREE_CRATES: &[&str] = &[
    "simdisk",
    "core",
    "ldcomp",
    "lld",
    "fsutil",
    "minix-fs",
    "ffs",
    "sprite-lfs",
    "loge",
    "ldck",
    "trace",
];

/// Crates that must be deterministic (everything simulation-facing —
/// the panic-free set plus the bench driver, which feeds workloads *into*
/// the simulation and must replay identically across runs).
const DETERMINISTIC_CRATES: &[&str] = &[
    "simdisk",
    "core",
    "ldcomp",
    "lld",
    "fsutil",
    "minix-fs",
    "ffs",
    "sprite-lfs",
    "loge",
    "ldck",
    "trace",
    "bench",
];

/// Storage library crates whose non-CLI code must not print to the
/// console (experiment output and trace streams must stay clean).
const PRINT_FREE_CRATES: &[&str] = &[
    "simdisk",
    "core",
    "ldcomp",
    "lld",
    "fsutil",
    "minix-fs",
    "ffs",
    "sprite-lfs",
    "loge",
    "trace",
];

/// File-system crates bound to the `BlockDev` abstraction, and `fsutil`,
/// whose namespace engine names no `simdisk` symbol at all.
const FS_CRATES: &[&str] = &["fsutil", "minix-fs", "ffs", "sprite-lfs"];

/// `simdisk` symbols file systems may reference. Everything else —
/// `SparseStore`, `SimDisk` geometry/timing/stats, NVRAM internals — is
/// disk-management detail the LD interface exists to hide.
const SIMDISK_ALLOWED: &[&str] = &["BlockDev", "DiskError", "SECTOR_SIZE"];

/// Files where iteration order decides what reaches the disk and in which
/// order (request scheduling, the cleaner's re-logging, victim choice, the
/// block map's live-block gathering and list ranks), so it must never come
/// from a hasher.
const DISPATCH_ORDER_FILES: &[&str] = &[
    "crates/simdisk/src/queue.rs",
    "crates/lld/src/cleaner.rs",
    "crates/lld/src/usage.rs",
    "crates/lld/src/block_map.rs",
];

/// Per-line waiver of the panic rule for documented invariants.
const PANIC_WAIVER: &str = "PANIC-OK:";

/// Waiver of the unused-pub rule for a `pub fn` kept without a caller.
const API_WAIVER: &str = "API-OK:";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("ci") => ci(),
        Some("soak") => {
            match soak_args(args) {
                Ok((from, to, step)) => match soak(from, to, step) {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("xtask soak: {e}");
                        ExitCode::FAILURE
                    }
                },
                Err(e) => {
                    eprintln!("usage: cargo run -p xtask -- soak --from N --to M --step S\nxtask soak: {e}");
                    ExitCode::from(2)
                }
            }
        }
        cmd => {
            eprintln!("usage: cargo run -p xtask -- <lint|ci|soak>");
            if let Some(c) = cmd {
                eprintln!("xtask: unknown subcommand {c:?}");
            }
            ExitCode::from(2)
        }
    }
}

/// Repository root, derived from this crate's manifest directory.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Lint {
    findings: Vec<String>,
    files_scanned: usize,
}

impl Lint {
    fn report(&mut self, rel: &str, lineno: usize, what: &str, hint: &str) {
        let mut msg = String::new();
        let _ = write!(msg, "{rel}:{lineno}: {what}");
        if !hint.is_empty() {
            let _ = write!(msg, " ({hint})");
        }
        self.findings.push(msg);
    }
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut lint = Lint::default();
    let sources: Vec<(String, String)> = rust_sources(&root)
        .into_iter()
        .filter_map(|path| {
            let source = std::fs::read_to_string(&path).ok()?;
            let rel = path
                .strip_prefix(&root)
                .unwrap_or(&path)
                .display()
                .to_string();
            Some((rel, source))
        })
        .collect();

    for (rel, source) in &sources {
        let Some(krate) = library_crate(rel) else {
            continue;
        };
        if [PANIC_FREE_CRATES, DETERMINISTIC_CRATES, PRINT_FREE_CRATES]
            .iter()
            .any(|set| set.contains(&krate))
        {
            lint.files_scanned += 1;
            check_source(rel, source, &mut lint);
        }
    }
    check_unused_pub(&sources, &mut lint);

    if lint.findings.is_empty() {
        println!(
            "xtask lint: {} files clean (no stray panics, wall clocks, prints, layering leaks, \
             or pub fns without a caller)",
            lint.files_scanned
        );
        ExitCode::SUCCESS
    } else {
        for f in &lint.findings {
            println!("{f}");
        }
        println!("xtask lint: {} finding(s)", lint.findings.len());
        ExitCode::FAILURE
    }
}

/// Every `.rs` file under `root`, skipping build output (`target/`) and
/// hidden directories, sorted.
fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// The crate whose library code the repository-relative path `rel` is:
/// `crates/<crate>/src/**`, except `tests.rs` files and `tests/`
/// directories.
fn library_crate(rel: &str) -> Option<&str> {
    let mut parts = rel.split('/');
    let (Some("crates"), Some(krate), Some("src")) = (parts.next(), parts.next(), parts.next())
    else {
        return None;
    };
    let rest: Vec<&str> = parts.collect();
    let test_only = rest.contains(&"tests") || rest.last() == Some(&"tests.rs");
    (!rest.is_empty() && !test_only).then_some(krate)
}

/// Whether `rel` is a CLI entry point (`main.rs` or under `bin/`).
fn is_cli_entry(rel: &str) -> bool {
    rel.ends_with("/main.rs") || rel.split('/').any(|c| c == "bin")
}

/// The lines of `source` outside `#[cfg(test)]` items, as `(line number,
/// raw line, code)`, where `code` is the line with its `//` comment
/// stripped so tokens in docs and comments don't count.
fn non_test_lines(source: &str) -> Vec<(usize, &str, &str)> {
    let mut out = Vec::new();
    let mut in_test_region = false;
    let mut pending_test_attr = false;
    let mut depth_at_region_start = 0i32;
    let mut depth = 0i32;
    for (lineno, raw) in source.lines().enumerate() {
        let code = raw.split("//").next().unwrap_or("");
        // Track `#[cfg(test)]`-gated regions by brace depth: everything
        // inside an item annotated as test-only is exempt.
        if !in_test_region && (raw.contains("#[cfg(test)]") || raw.contains("#[cfg(any(test")) {
            pending_test_attr = true;
        }
        let opens = code.matches('{').count() as i32;
        let closes = code.matches('}').count() as i32;
        if pending_test_attr {
            if opens > 0 {
                in_test_region = true;
                pending_test_attr = false;
                depth_at_region_start = depth;
            } else if code.contains(';') {
                // `#[cfg(test)] mod tests;` — out-of-line, nothing to skip.
                pending_test_attr = false;
            }
        }
        depth += opens - closes;
        if in_test_region {
            if depth <= depth_at_region_start {
                in_test_region = false;
            }
            continue;
        }
        out.push((lineno + 1, raw, code));
    }
    out
}

/// Rules 1–5 over one library file; `rel` is its repository-relative path.
fn check_source(rel: &str, source: &str, lint: &mut Lint) {
    let Some(krate) = library_crate(rel) else {
        return;
    };
    let panic_tokens = [
        ".unwrap()",
        ".expect(",
        "panic!(",
        "todo!(",
        "unimplemented!(",
    ];
    let time_tokens = [
        "std::time::Instant",
        "Instant::now",
        "SystemTime",
        "UNIX_EPOCH",
    ];
    let entropy_tokens = [
        "thread_rng",
        "from_entropy",
        "getrandom",
        "OsRng",
        "RandomState",
    ];
    let print_tokens = ["println!", "eprintln!", "print!(", "eprint!("];
    let panic_free = PANIC_FREE_CRATES.contains(&krate);
    let deterministic = DETERMINISTIC_CRATES.contains(&krate);
    let fs_crate = FS_CRATES.contains(&krate);
    let dispatch_order = DISPATCH_ORDER_FILES.contains(&rel);
    // CLI entry points may print — that is their job.
    let print_free = PRINT_FREE_CRATES.contains(&krate) && !is_cli_entry(rel);

    for (lineno, raw, code) in non_test_lines(source) {
        // The waiver marker lives *in* the comment, so look at the raw line.
        let waived = raw.contains(PANIC_WAIVER);
        if waived && !panic_tokens.iter().any(|tok| code.contains(tok)) {
            lint.report(
                rel,
                lineno,
                "stale `PANIC-OK:` waiver: no panic on this line",
                "delete the comment, or move it onto the line that can panic",
            );
        }

        if panic_free && !waived {
            for tok in panic_tokens {
                if code.contains(tok) {
                    lint.report(
                        rel,
                        lineno,
                        &format!("`{tok}` in library code"),
                        "return a typed error, or document the invariant with `// PANIC-OK: ...`",
                    );
                }
            }
        }

        if deterministic {
            for tok in time_tokens {
                if code.contains(tok) {
                    lint.report(
                        rel,
                        lineno,
                        &format!("wall-clock `{tok}` in simulation-facing code"),
                        "use the simulated clock (BlockDev::now_us)",
                    );
                }
            }
            for tok in entropy_tokens {
                if code.contains(tok) {
                    lint.report(
                        rel,
                        lineno,
                        &format!("OS entropy `{tok}` in simulation-facing code"),
                        "seed deterministically (SeedableRng::seed_from_u64)",
                    );
                }
            }
        }

        if print_free {
            for tok in print_tokens {
                if code.contains(tok) {
                    lint.report(
                        rel,
                        lineno,
                        &format!("`{tok}` in storage library code"),
                        "use typed errors, stats counters, or ld-trace events",
                    );
                }
            }
        }

        if dispatch_order {
            for tok in ["HashMap", "HashSet", "hash_map", "hash_set"] {
                if code.contains(tok) {
                    lint.report(
                        rel,
                        lineno,
                        &format!("unordered container `{tok}` where order reaches the disk"),
                        "hasher state would decide dispatch or re-log order; \
                         use Vec/VecDeque/BTreeMap/BTreeSet so runs replay bit-identically",
                    );
                }
            }
        }

        if fs_crate {
            for hit in find_simdisk_refs(code) {
                if !SIMDISK_ALLOWED.contains(&hit.as_str()) {
                    lint.report(
                        rel,
                        lineno,
                        &format!("file system reaches simdisk internal `simdisk::{hit}`"),
                        "file systems see the disk only through BlockDev",
                    );
                }
            }
        }
    }
}

/// A `pub fn` in library code, with the line of the `API-OK` waiver that
/// covers it, if any.
struct PubFn<'a> {
    rel: &'a str,
    lineno: usize,
    name: &'a str,
    waiver: Option<usize>,
}

/// Rule 6 (unused-pub) over `sources`, the `(repository-relative path,
/// text)` of every `.rs` file in the repository.
fn check_unused_pub(sources: &[(String, String)], lint: &mut Lint) {
    let mut called = BTreeSet::new();
    let mut decls = Vec::new();
    for (rel, source) in sources {
        for line in source.lines() {
            called_names(line.split("//").next().unwrap_or(""), &mut called);
        }
        // A binary's `pub fn`s are rustc's `dead_code` business.
        if library_crate(rel).is_some() && !is_cli_entry(rel) {
            pub_fns(rel, source, &mut decls, lint);
        }
    }
    for f in decls {
        match (called.contains(f.name), f.waiver) {
            (false, None) => lint.report(
                f.rel,
                f.lineno,
                &format!("`pub fn {}` has no caller in the repository", f.name),
                "delete it, or say why it stays with `// API-OK: ...`",
            ),
            (true, Some(at)) => lint.report(
                f.rel,
                at,
                &format!("stale `API-OK:` waiver: `{}` has callers", f.name),
                "delete the comment",
            ),
            _ => {}
        }
    }
}

/// Adds to `called` every name `code` calls or names by path: `.name(`,
/// `name(`, `name::<` and `Type::name`. Declarations (`fn name`) and bare
/// mentions (variables, fields) add nothing.
fn called_names<'a>(code: &'a str, called: &mut BTreeSet<&'a str>) {
    let mut start = None;
    for (i, c) in code.char_indices().chain([(code.len(), ' ')]) {
        match (start, is_ident(c)) {
            (None, true) => start = Some(i),
            (Some(s), false) => {
                start = None;
                let (before, after) = (&code[..s], &code[i..]);
                let declared = before
                    .trim_end()
                    .strip_suffix("fn")
                    .is_some_and(|b| !b.ends_with(is_ident));
                if !declared
                    && (after.starts_with('(')
                        || after.starts_with("::<")
                        || before.ends_with("::"))
                {
                    called.insert(&code[s..i]);
                }
            }
            _ => {}
        }
    }
}

/// Appends the `pub fn`s of one library `source` (outside test items) to
/// `decls`. A waiver covers the `pub fn` on its own line or the first one
/// below it across comment and attribute lines; a waiver that covers no
/// `pub fn` is reported.
fn pub_fns<'a>(rel: &'a str, source: &'a str, decls: &mut Vec<PubFn<'a>>, lint: &mut Lint) {
    let stray = |lint: &mut Lint, at: usize| {
        lint.report(
            rel,
            at,
            "stale `API-OK:` waiver: no `pub fn` follows it",
            "put it on the `pub fn` it excuses, or delete it",
        );
    };
    let mut waiver = None;
    for (lineno, raw, code) in non_test_lines(source) {
        if raw.contains(API_WAIVER) {
            if let Some(at) = waiver.replace(lineno) {
                stray(lint, at);
            }
        }
        let rest = code.trim_start();
        if let Some(name) = pub_fn_name(rest) {
            decls.push(PubFn {
                rel,
                lineno,
                name,
                waiver: waiver.take(),
            });
        } else if !rest.is_empty() && !rest.starts_with("#[") {
            if let Some(at) = waiver.take() {
                stray(lint, at);
            }
        }
    }
    if let Some(at) = waiver {
        stray(lint, at);
    }
}

/// The name declared by a line starting `pub fn` or `pub const fn`.
fn pub_fn_name(code: &str) -> Option<&str> {
    let rest = code.strip_prefix("pub ")?;
    let rest = rest
        .strip_prefix("const ")
        .unwrap_or(rest)
        .strip_prefix("fn ")?;
    let end = rest.find(|c| !is_ident(c)).unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Extracts the first path component after each `simdisk::` in a line.
fn find_simdisk_refs(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, _) in code.match_indices("simdisk::") {
        let rest = &code[i + "simdisk::".len()..];
        let ident: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        // `use simdisk::{A, B}` — expand the brace group instead.
        if ident.is_empty() && rest.starts_with('{') {
            for part in rest[1..rest.find('}').unwrap_or(rest.len())].split(',') {
                let sym: String = part
                    .trim()
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if !sym.is_empty() {
                    out.push(sym);
                }
            }
        } else if !ident.is_empty() {
            out.push(ident);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// ci
// ---------------------------------------------------------------------------

/// One CI step: a cargo invocation, a soak at one case offset, the
/// examples, or the baseline byte comparison.
enum Step {
    Cargo(&'static [&'static str]),
    Soak(u64),
    Examples,
    BaselineIdentity,
}

/// The full CI pipeline. `.github/workflows/ci.yml` runs this and nothing
/// else, so the step list has one home.
fn ci() -> ExitCode {
    let steps: &[(&str, Step)] = &[
        ("fmt", Step::Cargo(&["fmt", "--all", "--", "--check"])),
        ("build", Step::Cargo(&["build", "--release"])),
        ("test", Step::Cargo(&["test", "-q", "--workspace"])),
        ("examples", Step::Examples),
        // Every test of the workspace in release, each property on cases
        // the plain test step never draws: the offset shifts every case
        // index (the queue, simdisk, cache and LLD differentials, the LLD
        // crash harness, the crash matrix and every other property).
        ("replay", Step::Soak(1_000_000)),
        // Every experiment at quick scale, through both report renderers;
        // `repro` exits non-zero when a paper claim (`ld_bench::claims`)
        // fails at this scale.
        (
            "repro smoke",
            Step::Cargo(&[
                "run",
                "-q",
                "--release",
                "-p",
                "ld-bench",
                "--bin",
                "repro",
                "--",
                "--quick",
                "--json-out",
                "target/repro-quick.json",
                "all",
            ]),
        ),
        // Paper-stack traces of Tables 4/5: every section whose ring drops
        // nothing must sum, event by event, to the disk's attribution.
        (
            "trace smoke",
            Step::Cargo(&[
                "run",
                "-q",
                "--release",
                "-p",
                "ld-bench",
                "--bin",
                "repro",
                "--",
                "--quick",
                "--trace",
                "target/trace-quick.jsonl",
                "table4",
                "table5",
            ]),
        ),
        (
            "trace smoke (verify)",
            Step::Cargo(&[
                "run",
                "-q",
                "--release",
                "-p",
                "ld-trace",
                "--bin",
                "ldtrace",
                "--",
                "target/trace-quick.jsonl",
                "--tail",
                "0",
            ]),
        ),
        // Stopgap until `repro --check` diffs each experiment cell by cell.
        // Its full-scale run also gates every paper claim.
        ("baseline identity", Step::BaselineIdentity),
        // The benchmark is a package of its own, outside the workspace; its
        // tests check seed-0 runs against `BENCH_table4/table5/e17.json`.
        (
            "ldperf tests",
            Step::Cargo(&[
                "test",
                "-q",
                "--release",
                "--offline",
                "--manifest-path",
                "ldperf/Cargo.toml",
            ]),
        ),
        (
            "clippy",
            Step::Cargo(&[
                "clippy",
                "--workspace",
                "--all-targets",
                "--",
                "-D",
                "warnings",
            ]),
        ),
        (
            "lint",
            Step::Cargo(&["run", "-q", "-p", "xtask", "--", "lint"]),
        ),
    ];
    for (name, step) in steps {
        let result = match step {
            Step::Cargo(args) => cargo(name, args),
            Step::Soak(offset) => soak(*offset, *offset, 1),
            Step::Examples => examples(),
            Step::BaselineIdentity => baseline_identity(),
        };
        if let Err(e) = result {
            eprintln!("xtask ci: step `{name}` failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("xtask ci: all steps passed");
    ExitCode::SUCCESS
}

/// Runs `cargo <args>` at the repository root.
fn cargo(name: &str, args: &[&str]) -> Result<(), String> {
    println!("xtask ci: {name} (cargo {})", args.join(" "));
    match Command::new("cargo")
        .args(args)
        .current_dir(repo_root())
        .status()
    {
        Ok(s) if s.success() => Ok(()),
        Ok(s) => Err(s.to_string()),
        Err(e) => Err(format!("cannot run cargo: {e}")),
    }
}

// ---------------------------------------------------------------------------
// soak
// ---------------------------------------------------------------------------

/// Parses `--from N --to M --step S` (each once, `S` > 0).
fn soak_args(mut args: impl Iterator<Item = String>) -> Result<(u64, u64, u64), String> {
    let (mut from, mut to, mut step) = (None, None, None);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--from" => &mut from,
            "--to" => &mut to,
            "--step" => &mut step,
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let n = (value.parse::<u64>()).map_err(|_| format!("{flag} {value:?} is not a count"))?;
        if slot.replace(n).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    match (from, to, step) {
        (Some(from), Some(to), Some(step)) if step > 0 && from <= to => Ok((from, to, step)),
        (Some(_), Some(_), Some(_)) => Err("needs --from <= --to and --step > 0".into()),
        _ => Err("needs --from, --to and --step".into()),
    }
}

/// Runs every test of the workspace in release at each
/// `PROPTEST_CASE_OFFSET` from `from` through `to` in steps of `step`, so
/// every property draws cases the plain test step never does. Stops at
/// the first failing offset, with a one-line command that replays it.
fn soak(from: u64, to: u64, step: u64) -> Result<(), String> {
    let args = ["test", "-q", "--release", "--workspace"];
    let mut offset = from;
    loop {
        println!(
            "xtask soak: PROPTEST_CASE_OFFSET={offset} cargo {}",
            args.join(" ")
        );
        let out = Command::new("cargo")
            .args(args)
            .env("PROPTEST_CASE_OFFSET", offset.to_string())
            .current_dir(repo_root())
            .output()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        if !out.status.success() {
            print!("{stdout}");
            eprint!("{stderr}");
            return Err(format!(
                "offset {offset} failed; replay it with:\n{}",
                replay_command(offset, &stdout, &stderr)
            ));
        }
        let passed: u64 = (stdout.lines())
            .filter_map(|l| l.strip_prefix("test result: ok. "))
            .filter_map(|l| l.split(' ').next()?.parse::<u64>().ok())
            .sum();
        println!("xtask soak: offset {offset}: {passed} tests passed");
        match offset.checked_add(step) {
            Some(next) if next <= to => offset = next,
            _ => return Ok(()),
        }
    }
}

/// The command that replays the first failure of a `cargo test` run at
/// case offset `offset`, from its output: the failing property's own case
/// index as the offset (so that case runs first), the test binary cargo
/// names for a rerun, and the failing test's name.
fn replay_command(offset: u64, stdout: &str, stderr: &str) -> String {
    let case = (stdout.split("case index ").nth(1))
        .map(|rest| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .filter(|digits| !digits.is_empty())
        .unwrap_or_else(|| offset.to_string());
    let target = (stderr.split("to rerun pass `").nth(1))
        .and_then(|rest| rest.split('`').next())
        .unwrap_or("--workspace");
    let filter = (stdout.lines())
        .find_map(|l| l.strip_prefix("---- ")?.strip_suffix(" stdout ----"))
        .map(|name| format!(" -- {name} --exact"))
        .unwrap_or_default();
    format!("PROPTEST_CASE_OFFSET={case} cargo test -q --release {target}{filter}")
}

/// Runs every example in release. `offline_check` writes a clean and a
/// crashed image under `target/`, and `ldck` must pass both at the
/// example's geometry; every other example runs without arguments.
fn examples() -> Result<(), String> {
    let dir = repo_root().join("examples");
    let entries =
        std::fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut names: Vec<String> = entries
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .into_string()
                .ok()?
                .strip_suffix(".rs")
                .map(String::from)
        })
        .collect();
    names.sort();
    let images = ["target/offline-clean.img", "target/offline-crashed.img"];
    for name in &names {
        let mut args = vec!["run", "-q", "--release", "--example", name];
        if name == "offline_check" {
            args.push("--");
            args.extend(images);
        }
        cargo(&format!("example {name}"), &args)?;
    }
    for image in images {
        let args = [
            "run",
            "-q",
            "--release",
            "-p",
            "ldck",
            "--",
            "--segment-bytes",
            "64k",
            "--summary-bytes",
            "4k",
            image,
        ];
        cargo(&format!("ldck {image}"), &args)?;
    }
    Ok(())
}

/// Regenerates every experiment at full scale into one JSON array and
/// checks that each committed `BENCH_*.json` appears in it verbatim and
/// that the array holds exactly one document per committed file.
fn baseline_identity() -> Result<(), String> {
    let root = repo_root();
    let out = "target/baseline-all.json";
    let args = [
        "run",
        "-q",
        "--release",
        "-p",
        "ld-bench",
        "--bin",
        "repro",
        "--",
        "--json-out",
        out,
        "all",
    ];
    cargo("baseline identity", &args)?;
    let read = |f: &Path| {
        std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))
    };
    let fresh = read(&root.join(out))?;
    let entries = std::fs::read_dir(&root).map_err(|e| format!("cannot list the root: {e}"))?;
    let mut committed: Vec<String> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    committed.sort();
    let mut mismatches = Vec::new();
    for name in &committed {
        let text = read(&root.join(name))?;
        if !fresh.contains(text.trim()) {
            mismatches.push(first_difference(name, &text, &fresh));
        }
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "{out} has no document identical to {} committed file(s):\n{}",
            mismatches.len(),
            mismatches.join("\n")
        ));
    }
    // Every document opens with a `{` line of its own; rows are one line each.
    let documents = fresh.lines().filter(|l| *l == "{").count();
    if documents != committed.len() {
        return Err(format!(
            "{out} holds {documents} documents but {} BENCH_*.json files are committed",
            committed.len()
        ));
    }
    Ok(())
}

/// Where the committed BENCH document `text` (file `name`) first departs
/// from the regenerated document of the same experiment in `fresh`, the
/// array `repro --json-out` wrote: the line number and both versions of
/// the line. A regenerated document starts at a `{` line and ends at a
/// `}` or `},` line, both unindented.
fn first_difference(name: &str, text: &str, fresh: &str) -> String {
    let committed: Vec<&str> = text.trim().lines().collect();
    let experiment = (committed.iter()).find(|l| l.trim_start().starts_with("\"experiment\":"));
    let Some(experiment) = experiment else {
        return format!("  {name}: no \"experiment\" line");
    };
    let mut documents: Vec<Vec<&str>> = Vec::new();
    for line in fresh.lines() {
        match line {
            "{" => documents.push(vec![line]),
            "}" | "}," => documents.last_mut().into_iter().for_each(|d| d.push("}")),
            _ => documents.last_mut().into_iter().for_each(|d| d.push(line)),
        }
    }
    let Some(document) = documents.iter().find(|d| d.contains(experiment)) else {
        return format!(
            "  {name}: no regenerated document has {}",
            experiment.trim()
        );
    };
    let n = committed.len().max(document.len());
    let differs = (0..n).find(|&i| committed.get(i) != document.get(i));
    let shown = |l: Option<&&str>| l.map_or("(end of document)", |l| *l).trim().to_string();
    match differs {
        Some(i) => format!(
            "  {name} line {}:\n    committed   {}\n    regenerated {}",
            i + 1,
            shown(committed.get(i)),
            shown(document.get(i))
        ),
        None => format!("  {name}: differs only in whitespace around the document"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A mismatching baseline names its file, the first differing line and
    /// both versions of it; a missing experiment says so.
    #[test]
    fn soak_failures_replay_the_failing_case_of_the_failing_test() {
        let stdout = "running 2 tests\n---- recovers stdout ----\n\
                      proptest case 4/96 of `recovers` failed (case index 2000003, \
                      PROPTEST_CASE_OFFSET=2000000): boom\n";
        let stderr = "error: test failed, to rerun pass `-p lld --test prop`\n";
        assert_eq!(
            replay_command(2_000_000, stdout, stderr),
            "PROPTEST_CASE_OFFSET=2000003 cargo test -q --release -p lld --test prop -- recovers --exact"
        );
        // A plain test that fails names no case: replay at the soak's offset.
        assert_eq!(
            replay_command(7, "---- plain stdout ----\n", ""),
            "PROPTEST_CASE_OFFSET=7 cargo test -q --release --workspace -- plain --exact"
        );
    }

    #[test]
    fn soak_arguments_need_a_range_and_a_positive_step() {
        let parse = |a: &str| soak_args(a.split_whitespace().map(String::from));
        assert_eq!(parse("--from 0 --to 8 --step 2"), Ok((0, 8, 2)));
        assert!(parse("--from 0 --to 8 --step 0").is_err());
        assert!(parse("--from 9 --to 8 --step 1").is_err());
        assert!(parse("--from 0 --to 8").is_err());
        assert!(parse("--from 0 --from 1 --to 8 --step 1").is_err());
        assert!(parse("--from x --to 8 --step 1").is_err());
    }

    #[test]
    fn first_difference_names_the_file_and_the_first_differing_row() {
        let fresh = "[\n{\n  \"experiment\": \"a\",\n  \"rows\": [\n    {\"x\": 1}\n  ]\n},\n\
                     {\n  \"experiment\": \"b\",\n  \"rows\": [\n    {\"x\": 3},\n    {\"x\": 5}\n  ]\n}\n]\n";
        let committed =
            "{\n  \"experiment\": \"b\",\n  \"rows\": [\n    {\"x\": 3},\n    {\"x\": 4}\n  ]\n}\n";
        assert_eq!(
            first_difference("BENCH_b.json", committed, fresh),
            "  BENCH_b.json line 5:\n    committed   {\"x\": 4}\n    regenerated {\"x\": 5}"
        );
        let shorter = "{\n  \"experiment\": \"a\",\n  \"rows\": [\n  ]\n}\n";
        assert_eq!(
            first_difference("BENCH_a.json", shorter, fresh),
            "  BENCH_a.json line 4:\n    committed   ]\n    regenerated {\"x\": 1}"
        );
        let missing = "{\n  \"experiment\": \"c\"\n}\n";
        assert_eq!(
            first_difference("BENCH_c.json", missing, fresh),
            "  BENCH_c.json: no regenerated document has \"experiment\": \"c\""
        );
    }

    fn lint_file(rel: &str, source: &str) -> Vec<String> {
        let mut lint = Lint::default();
        check_source(rel, source, &mut lint);
        lint.findings
    }

    fn lint_source(source: &str) -> Vec<String> {
        lint_file("crates/lld/src/x.rs", source)
    }

    /// Rule 6 over in-memory `(path, source)` files.
    fn unused_pub(files: &[(&str, &str)]) -> Vec<String> {
        let sources: Vec<(String, String)> = files
            .iter()
            .map(|(rel, source)| (rel.to_string(), source.to_string()))
            .collect();
        let mut lint = Lint::default();
        check_unused_pub(&sources, &mut lint);
        lint.findings
    }

    const LIB: &str = "crates/lld/src/x.rs";

    #[test]
    fn waivers_must_sit_on_a_panic() {
        let live = "let e = m.get(b).expect(\"checked\"); // PANIC-OK: checked above\n";
        assert!(lint_source(live).is_empty());
        let stale = "let e = m.get(b).copied(); // PANIC-OK: checked above\n";
        let findings = lint_source(stale);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("crates/lld/src/x.rs:1: stale `PANIC-OK:` waiver"));
        // Test code is exempt, waivers included.
        let test_only = "#[cfg(test)]\nmod tests {\n    // PANIC-OK: not linted\n}\n";
        assert!(lint_source(test_only).is_empty());
    }

    #[test]
    fn panic_waivers_waive_only_the_panic() {
        let clock = "let t = Instant::now().elapsed().unwrap(); // PANIC-OK: host time\n";
        let findings = lint_source(clock);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("wall-clock `Instant::now`"),
            "{findings:?}"
        );
        let entropy =
            "let r = StdRng::from_entropy().gen::<u8>().max(x.unwrap()); // PANIC-OK: set\n";
        let findings = lint_source(entropy);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("OS entropy `from_entropy`"),
            "{findings:?}"
        );
        let order = "let m: HashMap<u32, u32> = it.collect::<Option<_>>().unwrap(); // PANIC-OK: all some\n";
        let findings = lint_file("crates/lld/src/cleaner.rs", order);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].contains("unordered container `HashMap`"),
            "{findings:?}"
        );
    }

    #[test]
    fn a_pub_fn_without_a_caller_is_a_finding() {
        let findings = unused_pub(&[(LIB, "impl T {\n    pub fn dead(&self) {}\n}\n")]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("crates/lld/src/x.rs:2: `pub fn dead` has no caller"));
        // Test items, CLI entry points and non-library files declare nothing.
        let test_only = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert!(unused_pub(&[(LIB, test_only)]).is_empty());
        for rel in [
            "crates/ldck/src/main.rs",
            "crates/bench/src/bin/repro.rs",
            "tests/t.rs",
        ] {
            assert!(
                unused_pub(&[(rel, "pub fn dead() {}\n")]).is_empty(),
                "{rel}"
            );
        }
    }

    #[test]
    fn calls_and_paths_clear_a_pub_fn() {
        let decl = "impl T {\n    pub fn live(&self) -> u32 {\n        0\n    }\n}\n";
        for caller in [
            "let n = t.live();",
            "let n = T::live(&t);",
            "let n: Vec<u32> = ts.iter().map(Self::live).collect();",
            "let n = t.live::<u8>();",
            "use crate::x::live;\nlet n = live(&t);",
        ] {
            let findings = unused_pub(&[(LIB, decl), ("tests/t.rs", caller)]);
            assert!(findings.is_empty(), "{caller}: {findings:?}");
        }
        // A caller in the declaring file counts too.
        let both = "pub fn live() {}\nfn user() {\n    live();\n}\n";
        assert!(unused_pub(&[(LIB, both)]).is_empty());
    }

    #[test]
    fn mentions_that_are_not_calls_do_not_clear_a_pub_fn() {
        let decl = "pub fn block_count(&self) -> usize {\n    0\n}\n";
        for mention in [
            "// Call block_count() for the total.\n",
            "/// See [`Lld::block_count`].\n",
            "let block_count = 3;\nf(block_count);\n",
            "let n = s.block_count + 1;\n",
            "Stats { block_count: 0 }\n",
        ] {
            let findings = unused_pub(&[(LIB, decl), ("tests/t.rs", mention)]);
            assert_eq!(findings.len(), 1, "{mention}: {findings:?}");
        }
        // Two same-named dead methods do not clear each other.
        let findings = unused_pub(&[(LIB, decl), ("crates/core/src/model.rs", decl)]);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn api_waivers_must_sit_on_a_pub_fn_without_callers() {
        let above = "/// Docs.\n// API-OK: the stable name tools script against\n#[inline]\npub fn kept() {}\n";
        assert!(unused_pub(&[(LIB, above)]).is_empty());
        let same_line = "pub fn kept() {} // API-OK: the stable name tools script against\n";
        assert!(unused_pub(&[(LIB, same_line)]).is_empty());
        // A waiver on a pub fn that has callers is stale.
        let findings = unused_pub(&[(LIB, above), ("tests/t.rs", "kept();\n")]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0]
                .starts_with("crates/lld/src/x.rs:2: stale `API-OK:` waiver: `kept` has callers"),
            "{findings:?}"
        );
        // So is one that covers no pub fn.
        for stray in [
            "// API-OK: why\nfn private() {}\n",
            "// API-OK: why\n",
            "let x = 1; // API-OK: why\n",
        ] {
            let findings = unused_pub(&[(LIB, stray)]);
            assert_eq!(findings.len(), 1, "{stray}: {findings:?}");
            assert!(
                findings[0].contains("stale `API-OK:` waiver: no `pub fn`"),
                "{findings:?}"
            );
        }
    }

    #[test]
    fn simdisk_refs_are_extracted_from_paths_and_use_groups() {
        assert_eq!(
            find_simdisk_refs("let x: simdisk::SimDisk = y;"),
            ["SimDisk"]
        );
        assert_eq!(
            find_simdisk_refs("use simdisk::{BlockDev, SECTOR_SIZE};"),
            ["BlockDev", "SECTOR_SIZE"]
        );
        assert!(find_simdisk_refs("nothing here").is_empty());
    }
}
