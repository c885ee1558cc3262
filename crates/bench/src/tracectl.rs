//! Optional structured tracing for experiment runs (`repro --trace`).
//!
//! When [`Opts::trace`](crate::exp::Opts) names a file, traced experiments
//! attach one [`ld_trace::Tracer`] to the simulated disk of each
//! file-system stack (every layer above records through it), take the
//! mechanical time attribution from the disk's own counters over the run,
//! append the run's events and that attribution to the trace file as
//! JSONL (`ldtrace` checks that a complete trace's events sum to it), and
//! return a footnote line for the rendered table.

use crate::driver::Bencher;
use crate::exp::Opts;
use std::io::Write;

/// A tracer attached to one file-system run, plus the disk-stat snapshot
/// taken at attach time (the start of the span the attribution covers).
pub struct TraceRun {
    tracer: ld_trace::Tracer,
    stats0: simdisk::DiskStats,
}

/// Ring capacity for experiment traces: large enough to keep a useful
/// timeline tail, small enough to stay O(MB) for a full table run.
const RING_CAPACITY: usize = 65_536;

/// Attaches a fresh tracer to `fs` when tracing is enabled; `None`
/// otherwise (the entire mechanism then costs nothing).
pub fn maybe_attach(fs: &mut dyn Bencher, opts: &Opts) -> Option<TraceRun> {
    opts.trace.as_ref()?;
    let tracer = ld_trace::Tracer::new(RING_CAPACITY);
    let stats0 = fs.disk_stats();
    fs.attach_tracer(tracer.clone());
    Some(TraceRun { tracer, stats0 })
}

/// Finishes a traced run: appends the events and the attribution to the
/// trace file under a `{"meta":"run",...}` header, and returns the
/// footnote line for the table. Returns an empty string when tracing is
/// off.
pub fn finish(run: Option<TraceRun>, fs: &dyn Bencher, opts: &Opts, exp: &str) -> String {
    let Some(run) = run else {
        return String::new();
    };
    let Some(path) = opts.trace.as_ref() else {
        return String::new();
    };
    // The disk's counters over the run are the attribution.
    let attr = fs
        .disk_stats()
        .delta_since(&run.stats0)
        .expect("disk stats are not reset during a traced run")
        .attribution();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open trace file");
    writeln!(
        f,
        "{{\"meta\":\"run\",\"exp\":\"{exp}\",\"fs\":\"{}\"}}",
        fs.label()
    )
    .expect("write trace header");
    run.tracer
        .export_jsonl(&mut f, &attr)
        .expect("write trace events");
    format!("  [{}: {}]\n", fs.label(), attr.footnote())
}
