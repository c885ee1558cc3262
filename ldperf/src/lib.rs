//! Benchmark of the paper's system — MINIX over LLD, and LLD alone — on
//! two clocks: the simulated disk clock the paper reports, and the host
//! wall clock the Rust stack runs on.
//!
//! A run repeats one workload for a fixed host time. End-to-end metrics
//! come from untraced iterations, their host times from the thread's CPU
//! clock; with tracing on, traced iterations wrap each layer's public
//! boundary in [`timed::Timed`] and give the per-layer split on the wall
//! clock. See `README.md` for every metric and workload.

pub mod timed;
pub mod workloads;

use std::time::{Duration, Instant};

use timed::{Layer, LayerClock, Untimed};
use workloads::{quantile, Outcome, Params, Tally, Workload};

/// Iterations of each kind (untraced, traced) a run makes at least, so
/// that every reported host time is a median of several.
pub const MIN_ITERATIONS: usize = 3;

/// How far the cleaner's `write_kb_s` and `segments_cleaned` may stray
/// from the first untraced iteration of the same seed. Its re-log order
/// moves them by up to ~0.5% (see [`Workload::deterministic`]); a
/// scheduler that lost its SATF hints would cost ~38%.
pub const CLEANER_TOLERANCE: f64 = 0.02;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub untraced: Vec<Outcome>,
    pub traced: Vec<Outcome>,
    pub tally: Tally,
    /// The metrics of the requested kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

/// Runs `workload` for at least `seconds` of host time, alternating
/// untraced and (when `trace`) traced iterations.
pub fn run(
    workload: Workload,
    params: &Params,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < MIN_ITERATIONS || start.elapsed() < budget {
        untraced.push(workloads::run(workload, params, Untimed)?);
        if trace {
            traced.push(workloads::run(workload, params, LayerClock::default())?);
        }
    }

    let mut tally = Tally::default();
    let reference = &untraced[0].sim;
    for (i, o) in untraced.iter().chain(&traced).enumerate() {
        tally.merge(&o.tally);
        let same = if workload.deterministic() {
            o.sim == *reference
        } else {
            near(o.sim.write_kb_s, reference.write_kb_s)
                && near(
                    o.sim.counters.segments_cleaned as f64,
                    reference.counters.segments_cleaned as f64,
                )
        };
        tally.check(same, || {
            format!("iteration {i}: simulated results differ from the first untraced iteration")
        });
    }
    tally.check(tally.attempted > 0, || {
        "no operation was issued".to_string()
    });
    let metrics = if trace {
        per_layer(&untraced, &traced, &mut tally)
    } else {
        end_to_end(&untraced, peak_rss_mb()?)
    };
    for m in &metrics {
        tally.check(m.value.is_finite(), || {
            format!("{} is not a number", m.name)
        });
    }
    Ok(Report {
        workload,
        seed: params.seed,
        untraced,
        traced,
        tally,
        metrics,
    })
}

/// Whether `a` is within [`CLEANER_TOLERANCE`] of `reference`.
pub fn near(a: f64, reference: f64) -> bool {
    (a - reference).abs() <= CLEANER_TOLERANCE * reference.abs()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Every metric is the median over the untraced iterations; simulated
/// ones are the same in every iteration of a deterministic workload.
fn end_to_end(untraced: &[Outcome], peak_rss_mb: f64) -> Vec<Metric> {
    let med = |f: fn(&Outcome) -> f64| median(untraced.iter().map(f).collect());
    vec![
        metric("write_kb_s", med(|o| o.sim.write_kb_s), "KB/sim_s"),
        metric("read_kb_s", med(|o| o.sim.read_kb_s), "KB/sim_s"),
        metric(
            "write_lat_p50_us",
            med(|o| quantile(&o.sim.write_lat_us, 0.5) as f64),
            "sim_us",
        ),
        metric(
            "write_lat_p999_us",
            med(|o| quantile(&o.sim.write_lat_us, 0.999) as f64),
            "sim_us",
        ),
        metric("recovery_s", med(|o| o.sim.recovery_s), "sim_s"),
        metric("host_s", med(|o| o.host_s), "s"),
        metric("setup_s", med(|o| o.setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(untraced: &[Outcome], traced: &[Outcome], tally: &mut Tally) -> Vec<Metric> {
    // The split of the traced iteration with the median wall time, so that
    // its parts add up to one measured total.
    let mut by_wall: Vec<&Outcome> = traced.iter().collect();
    by_wall.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    let o = by_wall[(by_wall.len() - 1) / 2];
    let t = o.layers.unwrap_or_default();
    let c = &o.sim.counters;
    let secs = |ns: u64| ns as f64 / 1e9;
    let self_s = |l: Layer| secs(t.self_ns(l));
    let layers_s: f64 = Layer::ALL.iter().map(|&l| self_s(l)).sum();
    let harness_s = o.wall_s - layers_s;
    tally.check(harness_s >= 0.0, || {
        format!(
            "per-layer self times ({layers_s} s) exceed the traced total ({} s)",
            o.wall_s
        )
    });
    let untraced_host = median(untraced.iter().map(|o| o.host_s).collect());
    let traced_host = median(traced.iter().map(|o| o.host_s).collect());
    let minix_ops = t.calls(Layer::Minix) as f64;
    let lld_calls = t.calls(Layer::Lld) as f64;
    let requests = (c.disk_reads + c.disk_writes) as f64;
    let busy = c.busy_us() as f64;
    vec![
        metric("minix.self_host_s", self_s(Layer::Minix), "s"),
        metric("minix.ops", minix_ops, "count"),
        metric(
            "minix.store_calls_per_op",
            ratio(lld_calls, minix_ops),
            "ratio",
        ),
        metric(
            "minix.cache_hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        ),
        metric("minix.cache_misses", c.cache_misses as f64, "count"),
        metric("lld.self_host_s", self_s(Layer::Lld), "s"),
        metric("lld.calls", lld_calls, "count"),
        metric(
            "lld.self_host_ns_per_call",
            ratio(t.self_ns(Layer::Lld) as f64, lld_calls),
            "ns",
        ),
        metric("lld.segments_sealed", c.segments_sealed as f64, "count"),
        metric(
            "lld.partial_segment_writes",
            c.partial_segment_writes as f64,
            "count",
        ),
        metric("lld.records_logged", c.records_logged as f64, "count"),
        metric("lld.segments_cleaned", c.segments_cleaned as f64, "count"),
        metric(
            "lld.cleaner_bytes_copied",
            c.cleaner_bytes_copied as f64,
            "bytes",
        ),
        metric(
            "lld.write_amp",
            ratio(
                (c.sectors_written * simdisk::SECTOR_SIZE as u64) as f64,
                c.user_bytes_written as f64,
            ),
            "ratio",
        ),
        metric(
            "lld.recovery_summaries_read",
            c.recovery_summaries_read as f64,
            "count",
        ),
        metric("lld.recovery_host_s", o.recovery_host_s, "s"),
        metric("lld.queue_drains", c.queue_drains as f64, "count"),
        metric("queue.dispatched", c.queue_dispatched as f64, "count"),
        metric(
            "queue.mean_depth",
            ratio(c.queue_depth_sum as f64, c.queue_dispatched as f64),
            "requests",
        ),
        metric(
            "queue.coalesced_sectors",
            c.queue_coalesced_sectors as f64,
            "sectors",
        ),
        metric("simdisk.self_host_s", self_s(Layer::Simdisk), "s"),
        metric("simdisk.requests", requests, "count"),
        metric(
            "simdisk.host_ns_per_request",
            ratio(t.self_ns(Layer::Simdisk) as f64, requests),
            "ns",
        ),
        metric("simdisk.busy_s", busy / 1e6, "sim_s"),
        metric("simdisk.utilization", ratio(busy, c.sim_us as f64), "ratio"),
        metric("simdisk.seek_s", c.seek_us as f64 / 1e6, "sim_s"),
        metric("simdisk.rotation_s", c.rotation_us as f64 / 1e6, "sim_s"),
        metric("simdisk.transfer_s", c.transfer_us as f64 / 1e6, "sim_s"),
        metric("simdisk.switch_s", c.switch_us as f64 / 1e6, "sim_s"),
        metric("simdisk.overhead_s", c.overhead_us as f64 / 1e6, "sim_s"),
        metric("simdisk.sectors_read", c.sectors_read as f64, "sectors"),
        metric(
            "simdisk.sectors_written",
            c.sectors_written as f64,
            "sectors",
        ),
        metric(
            "simdisk.readahead_hit_ratio",
            ratio(c.disk_cached_reads as f64, c.disk_reads as f64),
            "ratio",
        ),
        metric("harness.host_s", harness_s, "s"),
        metric("harness.trace_overhead_s", traced_host - untraced_host, "s"),
    ]
}

/// The process's peak resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak RSS from /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

impl Report {
    /// Whether every operation and correctness check passed.
    pub fn correct(&self) -> bool {
        self.tally.correct()
    }

    /// The human-readable report: iterations, phase rates, every metric.
    pub fn text(&self) -> String {
        let mut out = format!(
            "ldperf {} seed {}: {} untraced + {} traced iterations\n",
            self.workload.name(),
            self.seed,
            self.untraced.len(),
            self.traced.len()
        );
        for (kind, list) in [("untraced", &self.untraced), ("traced", &self.traced)] {
            for o in list.iter() {
                out.push_str(&format!(
                    "  {kind:8} setup {:.4} s cpu  host {:.4} s cpu  {:.4} s wall\n",
                    o.setup_s, o.host_s, o.wall_s
                ));
            }
        }
        let sim = &self.untraced[0].sim;
        out.push_str(&format!(
            "  phases ({} write-latency samples):\n",
            sim.write_lat_us.len()
        ));
        for (name, value, unit) in &sim.phases {
            out.push_str(&format!("    {name:28} {value:>14.1} {unit}\n"));
        }
        out.push_str("  metrics:\n");
        for m in &self.metrics {
            out.push_str(&format!("    {:28} {:>14.6} {}\n", m.name, m.value, m.unit));
        }
        for p in &self.tally.problems {
            out.push_str(&format!("  PROBLEM: {p}\n"));
        }
        out
    }

    /// The one-line machine-readable result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}
