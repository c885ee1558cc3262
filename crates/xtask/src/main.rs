//! `cargo xtask` — workspace automation, dependency-free by design.
//!
//! ```text
//! cargo run -p xtask -- lint    # invariant lints over the workspace source
//! cargo run -p xtask -- ci      # build + test + clippy + lint + ldck smoke
//! ```
//!
//! The `lint` subcommand enforces three workspace invariants that rustc and
//! clippy do not express:
//!
//! 1. **No panicking error handling in library code.** `.unwrap()`,
//!    `.expect(...)`, `panic!`, `todo!` and `unimplemented!` are forbidden in
//!    the non-test code of the core crates. Fallible paths must use typed
//!    errors; a genuine can't-happen invariant may be waived line-by-line
//!    with a `// PANIC-OK: <why it cannot fire>` comment, which keeps every
//!    remaining panic site documented and greppable. (`assert!` is allowed:
//!    precondition checks on documented panicking APIs are contracts, not
//!    error handling.)
//! 2. **No wall-clock time or OS randomness in simulation-facing crates.**
//!    The whole point of `simdisk` is a deterministic simulated clock; a
//!    host clock or an entropy-seeded RNG anywhere in the simulation stack
//!    would silently break reproducibility. The rule has no exception in
//!    this workspace: host time is measured only by the standalone
//!    `ldperf` benchmark.
//! 3. **Layering.** File-system crates sit on the `BlockDev` abstraction;
//!    they must not reach into `simdisk` internals (stores, geometry,
//!    timing), otherwise the FS-on-LD-on-simdisk stack stops being
//!    swappable.
//! 4. **No console output from storage library code.** `println!` /
//!    `eprintln!` in the storage crates corrupts experiment output and is
//!    invisible in tests; diagnostics belong in typed errors, stats
//!    counters, or `ld-trace` events. CLI entry points (`main.rs`,
//!    `bin/`) are exempt; a deliberate library print may be waived with
//!    `// PRINT-OK: <why>`.
//! 5. **Deterministic dispatch order in the I/O scheduler and cleaner.**
//!    The command queue promises bit-reproducible schedules (ties break by
//!    submission order), and the cleaner re-logs the records a victim's
//!    summary mentions in iteration order; a `HashMap`/`HashSet` there
//!    would let hasher state pick what reaches the disk, and when. These
//!    modules must use only ordered containers (`Vec`, `VecDeque`,
//!    `BTreeMap`, `BTreeSet`).

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

/// File-system crates bound to the `BlockDev` abstraction.
const FS_CRATES: &[&str] = &["minix-fs", "ffs", "sprite-lfs"];

/// `simdisk` symbols file systems may reference. Everything else —
/// `SparseStore`, `SimDisk` geometry/timing/stats, NVRAM internals — is
/// disk-management detail the LD interface exists to hide.
const SIMDISK_ALLOWED: &[&str] = &["BlockDev", "DiskError", "SECTOR_SIZE"];

/// Files where iteration order decides what reaches the disk and in which
/// order (request scheduling, the cleaner's re-logging), so it must never
/// come from a hasher.
const DISPATCH_ORDER_FILES: &[&str] = &[
    "crates/simdisk/src/queue.rs",
    "crates/lld/src/cleaner.rs",
];

/// Per-line waiver marker for documented invariants.
const WAIVER: &str = "PANIC-OK:";

/// Per-line waiver marker for deliberate library prints.
const PRINT_WAIVER: &str = "PRINT-OK:";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("ci") => ci(),
        cmd => {
            eprintln!("usage: cargo run -p xtask -- <lint|ci>");
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

struct Lint {
    findings: Vec<String>,
    files_scanned: usize,
}

fn lint() -> ExitCode {
    let root = repo_root();
    let mut lint = Lint {
        findings: Vec::new(),
        files_scanned: 0,
    };

    let mut crates: Vec<&str> = PANIC_FREE_CRATES.to_vec();
    for krate in DETERMINISTIC_CRATES.iter().chain(PRINT_FREE_CRATES) {
        if !crates.contains(krate) {
            crates.push(krate);
        }
    }
    for krate in crates {
        for file in library_sources(&root.join("crates").join(krate).join("src")) {
            check_file(&root, &file, &mut lint, krate);
        }
    }

    if lint.findings.is_empty() {
        println!(
            "xtask lint: {} files clean (no stray panics, wall clocks, prints, or layering leaks)",
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

/// All non-test `.rs` files under `dir`: skips `tests.rs` and any `tests/`
/// directory component.
fn library_sources(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "tests" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") && name != "tests.rs" {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

fn check_file(root: &Path, path: &Path, lint: &mut Lint, krate: &str) {
    let Ok(source) = std::fs::read_to_string(path) else {
        return;
    };
    lint.files_scanned += 1;
    let rel = path.strip_prefix(root).unwrap_or(path).display().to_string();

    let panic_tokens = [".unwrap()", ".expect(", "panic!(", "todo!(", "unimplemented!("];
    let time_tokens = ["std::time::Instant", "Instant::now", "SystemTime", "UNIX_EPOCH"];
    let entropy_tokens = ["thread_rng", "from_entropy", "getrandom", "OsRng", "RandomState"];
    let print_tokens = ["println!", "eprintln!", "print!(", "eprint!("];
    let panic_free = PANIC_FREE_CRATES.contains(&krate);
    let deterministic = DETERMINISTIC_CRATES.contains(&krate);
    let fs_crate = FS_CRATES.contains(&krate);
    let dispatch_order = DISPATCH_ORDER_FILES.contains(&rel.as_str());
    // CLI entry points may print — that is their job.
    let cli_entry = path.file_name().is_some_and(|n| n == "main.rs")
        || path.components().any(|c| c.as_os_str() == "bin");
    let print_free = PRINT_FREE_CRATES.contains(&krate) && !cli_entry;

    let mut in_test_region = false;
    let mut pending_test_attr = false;
    let mut depth_at_region_start = 0i32;
    let mut depth = 0i32;

    for (lineno, raw) in source.lines().enumerate() {
        let lineno = lineno + 1;
        // Strip line comments so tokens in docs and comments don't count —
        // except the waiver marker, which lives *in* the comment.
        let waived = raw.contains(WAIVER);
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

        let report = |lint: &mut Lint, what: &str, hint: &str| {
            let mut msg = String::new();
            let _ = write!(msg, "{rel}:{lineno}: {what}");
            if !hint.is_empty() {
                let _ = write!(msg, " ({hint})");
            }
            lint.findings.push(msg);
        };

        if panic_free && !waived {
            for tok in panic_tokens {
                if code.contains(tok) {
                    report(
                        lint,
                        &format!("`{tok}` in library code"),
                        "return a typed error, or document the invariant with `// PANIC-OK: ...`",
                    );
                }
            }
        }

        if deterministic && !waived {
            for tok in time_tokens {
                if code.contains(tok) {
                    report(
                        lint,
                        &format!("wall-clock `{tok}` in simulation-facing code"),
                        "use the simulated clock (BlockDev::now_us)",
                    );
                }
            }
            for tok in entropy_tokens {
                if code.contains(tok) {
                    report(
                        lint,
                        &format!("OS entropy `{tok}` in simulation-facing code"),
                        "seed deterministically (SeedableRng::seed_from_u64)",
                    );
                }
            }
        }

        if print_free && !raw.contains(PRINT_WAIVER) {
            for tok in print_tokens {
                if code.contains(tok) {
                    report(
                        lint,
                        &format!("`{tok}` in storage library code"),
                        "use typed errors, stats counters, or ld-trace events; \
                         waive a deliberate print with `// PRINT-OK: ...`",
                    );
                }
            }
        }

        if dispatch_order && !waived {
            for tok in ["HashMap", "HashSet", "hash_map", "hash_set"] {
                if code.contains(tok) {
                    report(
                        lint,
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
                    report(
                        lint,
                        &format!("file system reaches simdisk internal `simdisk::{hit}`"),
                        "file systems see the disk only through BlockDev",
                    );
                }
            }
        }
    }
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

/// Experiments whose committed full-scale `BENCH_<exp>.json` CI
/// regenerates and byte-compares: the two that exercise the buffer cache
/// hardest, about 1 s each.
const BASELINE_EXPERIMENTS: &[&str] = &["table5", "inodes"];

/// One CI step: a cargo invocation, or the baseline byte comparison.
enum Step {
    Cargo(&'static [&'static str]),
    BaselineIdentity,
}

/// The full CI pipeline. `.github/workflows/ci.yml` runs this and nothing
/// else, so the step list has one home.
fn ci() -> ExitCode {
    let steps: &[(&str, Step)] = &[
        ("build", Step::Cargo(&["build", "--release"])),
        ("test", Step::Cargo(&["test", "-q", "--workspace"])),
        // The media-fault suites re-run in release: the proptest matrices
        // explore far more cases per second there, and release is what
        // `repro` ships.
        (
            "fault suite (lld)",
            Step::Cargo(&[
                "test", "-q", "--release", "-p", "lld", "--test", "faults", "--test",
                "recovery_idempotent",
            ]),
        ),
        (
            "fault suite (fs)",
            Step::Cargo(&[
                "test", "-q", "--release", "--test", "fault_matrix", "--test",
                "differential_fs",
            ]),
        ),
        // Queueing: the depth-1 differential + ordering proptests.
        (
            "queue differential",
            Step::Cargo(&["test", "-q", "--release", "--test", "queue_differential"]),
        ),
        // Every experiment at quick scale, through both report renderers.
        (
            "repro smoke",
            Step::Cargo(&[
                "run", "-q", "--release", "-p", "ld-bench", "--bin", "repro", "--", "--quick",
                "--json-out", "target/repro-quick.json", "all",
            ]),
        ),
        // Stopgap until `repro --check` compares every experiment.
        ("baseline identity", Step::BaselineIdentity),
        ("clippy", Step::Cargo(&["clippy", "--workspace", "--", "-D", "warnings"])),
        ("lint", Step::Cargo(&["run", "-q", "-p", "xtask", "--", "lint"])),
        ("ldck smoke", Step::Cargo(&["run", "-q", "-p", "ldck", "--", "--selftest"])),
        (
            "ldtrace smoke",
            Step::Cargo(&["run", "-q", "-p", "ld-trace", "--bin", "ldtrace", "--", "--selftest"]),
        ),
    ];
    for (name, step) in steps {
        let result = match step {
            Step::Cargo(args) => cargo(name, args),
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

/// Regenerates each of [`BASELINE_EXPERIMENTS`] at full scale and checks
/// that its JSON is byte-identical to the committed baseline.
fn baseline_identity() -> Result<(), String> {
    let root = repo_root();
    for exp in BASELINE_EXPERIMENTS {
        let out = format!("target/baseline-{exp}.json");
        let args = [
            "run", "-q", "--release", "-p", "ld-bench", "--bin", "repro", "--", "--json-out", &out,
            exp,
        ];
        cargo("baseline identity", &args)?;
        let committed = format!("BENCH_{exp}.json");
        let read =
            |f: &str| std::fs::read(root.join(f)).map_err(|e| format!("cannot read {f}: {e}"));
        if read(&out)? != read(&committed)? {
            return Err(format!("{out} differs from the committed {committed}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simdisk_refs_are_extracted_from_paths_and_use_groups() {
        assert_eq!(find_simdisk_refs("let x: simdisk::SimDisk = y;"), ["SimDisk"]);
        assert_eq!(
            find_simdisk_refs("use simdisk::{BlockDev, SECTOR_SIZE};"),
            ["BlockDev", "SECTOR_SIZE"]
        );
        assert!(find_simdisk_refs("nothing here").is_empty());
    }
}
