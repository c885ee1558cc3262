//! The three workloads. Each is single-threaded and closed-loop: one
//! caller issues every operation and waits for it to finish.
//!
//! A workload runs in three parts: set-up (format, fill, input
//! generation), the timed regions (the measured operations, with the
//! harness generating and verifying data in between), and untimed offline
//! checks (`ldck` images, post-recovery contents). Host time is taken only
//! over the timed regions, on the thread's CPU clock for the end-to-end
//! metrics and on the wall clock for the per-layer split. The per-layer
//! timer totals are snapshot at
//! the start and end of each region, so work done outside them (such as
//! `Lld::format` writing summaries before any store wrapper exists) is
//! never charged to a layer.

use std::time::Instant;

use ld_bench::report::{kb_per_s, ops_per_s};
use ld_bench::rig;
use ld_bench::workload::{compressible_data, file_names, rng, shuffled};
use ld_core::{FailureSet, ListHints, LogicalDisk, Pred, PredList};
use lld::{Lld, LldConfig, LldStats};
use minix_fs::{Ino, LdStore, MinixFs};
use rand::Rng;
use simdisk::{BlockDev, DiskStats, QueueStats, Scheduler, SimDisk};

use crate::timed::{thread_cpu_ns, Layer, Timed, Timer, Totals};

/// The seed that reproduces the committed `BENCH_table4.json`,
/// `BENCH_table5.json` and `BENCH_e17.json` numbers.
pub const DEFAULT_SEED: u64 = 0;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 4: create, read, delete many 1 KB files in one directory.
    Smallfile,
    /// Table 5: five passes over one large file in 8 KB chunks.
    Largefile,
    /// Raw LLD under hot/cold overwrites with SATF queueing, then a crash
    /// and the recovery sweep.
    Cleaner,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [Workload::Smallfile, Workload::Largefile, Workload::Cleaner];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Smallfile => "smallfile",
            Workload::Largefile => "largefile",
            Workload::Cleaner => "cleaner",
        }
    }

    /// Whether every iteration of a seed must give bit-identical simulated
    /// results. The cleaner's does not: `lld::cleaner` re-logs a victim's
    /// metadata records in `HashSet` iteration order, so when the re-log
    /// fills the open segment the seal lands at a point that varies from
    /// run to run (about 0.3% in `write_kb_s` at 100,000 writes).
    pub fn deterministic(self) -> bool {
        self != Workload::Cleaner
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Small files created, read and deleted (Table 4).
const FILES: usize = 10_000;
/// Bytes per small file.
const FILE_BYTES: usize = 1 << 10;
/// Size of the large file (Table 5).
const LARGE_BYTES: u64 = 80 << 20;
/// Bytes per large-file read or write call.
const CHUNK_BYTES: usize = 8 << 10;
/// Disk size under raw LLD for the cleaner workload (E17's).
const CLEANER_DISK_BYTES: u64 = 48 << 20;

/// What a run varies: the seed, and the cleaner's length (E17 runs it at
/// 20,000 writes).
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed; [`DEFAULT_SEED`] reproduces the committed tables.
    pub seed: u64,
    /// Block overwrites in the cleaner workload.
    pub cleaner_writes: usize,
}

impl Params {
    /// The benchmark's run: Table 4's 10,000 1 KB files, Table 5's 80 MB
    /// file, and 100,000 overwrites on E17's 48 MB cleaner disk.
    pub fn full(seed: u64) -> Self {
        Self {
            seed,
            cleaner_writes: 100_000,
        }
    }
}

/// A generator seed for this run: `base` itself at [`DEFAULT_SEED`], a
/// different stream for every other seed.
pub fn derive(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Block size of every stamped unit below a chunk or file.
const BLOCK: usize = 4 << 10;

/// Bytes of the identity stamp at the start of every stamped unit.
const STAMP: usize = 24;

/// Copies `body` into `out` and stamps each `unit`-byte piece with its
/// identity (`first_id` onwards), `version` and the run's seed, so a read
/// that returns another unit, a stale version or another run's data
/// cannot compare equal.
fn fill(out: &mut [u8], body: &[u8], unit: usize, first_id: u64, version: u64, seed: u64) {
    out.copy_from_slice(body);
    for (k, piece) in out.chunks_mut(unit).enumerate() {
        let n = piece.len().min(STAMP);
        let mut stamp = [0u8; STAMP];
        stamp[..8].copy_from_slice(&(first_id + k as u64).to_le_bytes());
        stamp[8..16].copy_from_slice(&version.to_le_bytes());
        stamp[16..].copy_from_slice(&seed.to_le_bytes());
        piece[..n].copy_from_slice(&stamp[..n]);
    }
}

/// Operations attempted and failed, and what went wrong.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations issued to the system under test.
    pub attempted: u64,
    /// Operations that returned an error or wrong data.
    pub failed: u64,
    /// Failed correctness checks that are not single operations.
    pub check_failures: u64,
    /// The first few problems, for the report.
    pub problems: Vec<String>,
}

impl Tally {
    fn note(&mut self, problem: String) {
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    /// Counts one operation; returns its value if it succeeded.
    fn op<R, E: std::fmt::Debug>(&mut self, result: Result<R, E>, what: &str) -> Option<R> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.note(format!("{what}: {e:?}"));
                None
            }
        }
    }

    /// Marks an already counted read as failed because it returned wrong
    /// data.
    fn bad_read(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// Records a correctness check that is not a single operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures += 1;
            self.note(what());
        }
    }

    /// Adds another iteration's tally.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.check_failures += other.check_failures;
        for p in &other.problems {
            self.note(p.clone());
        }
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures == 0
    }
}

/// Public counters at one instant, from every layer that has them.
#[derive(Debug, Clone, Copy, Default)]
struct Probe {
    cache: (u64, u64),
    lld: LldStats,
    queue: QueueStats,
    disk: DiskStats,
    now_us: u64,
}

impl Probe {
    /// The counters of a layer instance created inside a timed region
    /// (after a crash): the file system and LLD start from zero, the disk
    /// keeps its counters.
    fn fresh(disk: &SimDisk) -> Self {
        Probe {
            disk: *disk.stats(),
            now_us: disk.now_us(),
            ..Probe::default()
        }
    }
}

/// Counter deltas over the timed regions. Every field is a function of the
/// simulation alone, so it repeats exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub segments_sealed: u64,
    pub partial_segment_writes: u64,
    pub records_logged: u64,
    pub segments_cleaned: u64,
    pub cleaner_bytes_copied: u64,
    pub queue_drains: u64,
    pub recovery_summaries_read: u64,
    pub queue_dispatched: u64,
    pub queue_depth_sum: u64,
    pub queue_coalesced_sectors: u64,
    pub disk_reads: u64,
    pub disk_cached_reads: u64,
    pub disk_writes: u64,
    pub sectors_read: u64,
    pub sectors_written: u64,
    pub seek_us: u64,
    pub rotation_us: u64,
    pub transfer_us: u64,
    pub switch_us: u64,
    pub overhead_us: u64,
    /// Simulated time spanned by the timed regions.
    pub sim_us: u64,
    /// Bytes the workload asked the system to write.
    pub user_bytes_written: u64,
}

impl Counters {
    fn add_span(&mut self, a: &Probe, b: &Probe) {
        self.cache_hits += b.cache.0 - a.cache.0;
        self.cache_misses += b.cache.1 - a.cache.1;
        self.segments_sealed += b.lld.segments_sealed - a.lld.segments_sealed;
        self.partial_segment_writes += b.lld.partial_segment_writes - a.lld.partial_segment_writes;
        self.records_logged += b.lld.records_logged - a.lld.records_logged;
        self.segments_cleaned += b.lld.segments_cleaned - a.lld.segments_cleaned;
        self.cleaner_bytes_copied += b.lld.cleaner_bytes_copied - a.lld.cleaner_bytes_copied;
        self.queue_drains += b.lld.queue_drains - a.lld.queue_drains;
        // A point-in-time field: set by the recovery inside the region.
        self.recovery_summaries_read += b.lld.recovery_summaries_read;
        self.queue_dispatched += b.queue.dispatched - a.queue.dispatched;
        self.queue_depth_sum += b.queue.depth_sum - a.queue.depth_sum;
        self.queue_coalesced_sectors += b.queue.coalesced_sectors - a.queue.coalesced_sectors;
        self.disk_reads += b.disk.read_ops - a.disk.read_ops;
        self.disk_cached_reads += b.disk.cached_reads - a.disk.cached_reads;
        self.disk_writes += b.disk.write_ops - a.disk.write_ops;
        self.sectors_read += b.disk.sectors_read - a.disk.sectors_read;
        self.sectors_written += b.disk.sectors_written - a.disk.sectors_written;
        self.seek_us += b.disk.seek_us - a.disk.seek_us;
        self.rotation_us += b.disk.rotation_us - a.disk.rotation_us;
        self.transfer_us += b.disk.transfer_us - a.disk.transfer_us;
        self.switch_us += b.disk.switch_us - a.disk.switch_us;
        self.overhead_us += b.disk.overhead_us - a.disk.overhead_us;
        self.sim_us += b.now_us - a.now_us;
    }

    /// Simulated microseconds the disk was busy.
    pub fn busy_us(&self) -> u64 {
        self.seek_us + self.rotation_us + self.transfer_us + self.switch_us + self.overhead_us
    }
}

/// Simulated-clock results of one iteration; identical for every
/// iteration of a seed, traced or not, when
/// [`Workload::deterministic`] holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// User bytes written per simulated second, over the write phases.
    pub write_kb_s: f64,
    /// User bytes read per simulated second, over the read phases.
    pub read_kb_s: f64,
    /// Simulated latency of every user write call, sorted.
    pub write_lat_us: Vec<u64>,
    /// Simulated time of the LLD recovery sweep.
    pub recovery_s: f64,
    /// Per-phase rates under the names of the paper's tables.
    pub phases: Vec<(&'static str, f64, &'static str)>,
    pub counters: Counters,
}

/// One iteration of a workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Host CPU seconds of set-up.
    pub setup_s: f64,
    /// Host CPU seconds of the timed regions.
    pub host_s: f64,
    /// Host wall seconds of the timed regions; the per-layer self times
    /// and the harness's share add up to it.
    pub wall_s: f64,
    /// Per-layer host wall time over the timed regions (traced runs only).
    pub layers: Option<Totals>,
    /// Host wall seconds inside the LLD recovery call.
    pub recovery_host_s: f64,
    pub sim: Sim,
    pub tally: Tally,
}

/// Times the regions of one iteration on the CPU clock, the wall clock
/// and the layer timer.
struct Meter<T: Timer> {
    timer: T,
    cpu_ns: u64,
    wall_ns: u64,
    layers: Option<Totals>,
}

impl<T: Timer> Meter<T> {
    fn new(timer: T) -> Self {
        let layers = timer.totals().map(|_| Totals::default());
        Self {
            timer,
            cpu_ns: 0,
            wall_ns: 0,
            layers,
        }
    }

    fn region<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let before = self.timer.totals();
        let cpu = thread_cpu_ns();
        let start = Instant::now();
        let out = f();
        self.wall_ns += start.elapsed().as_nanos() as u64;
        self.cpu_ns += thread_cpu_ns() - cpu;
        if let (Some(sum), Some(a), Some(b)) = (&mut self.layers, before, self.timer.totals()) {
            sum.add(&b.since(&a));
        }
        out
    }
}

/// Runs one iteration of `workload`.
pub fn run<T: Timer>(workload: Workload, p: &Params, timer: T) -> Result<Outcome, String> {
    match workload {
        Workload::Smallfile => smallfile(p, timer),
        Workload::Largefile => largefile(p, timer),
        Workload::Cleaner => cleaner(p, timer),
    }
}

type Dev<T> = Timed<SimDisk, T>;
type Fs<T> = Timed<MinixFs<Timed<LdStore<Dev<T>>, T>>, T>;

/// The simulator behind a MINIX stack (read without going through any
/// timed wrapper).
fn minix_sim<T: Timer>(fs: &Fs<T>) -> &SimDisk {
    fs.inner().store().inner().disk().inner()
}

fn minix_probe<T: Timer>(fs: &Fs<T>) -> Probe {
    let lld = fs.inner().store().inner().lld();
    let sim = minix_sim(fs);
    Probe {
        cache: fs.inner().cache_stats(),
        lld: *lld.stats(),
        queue: lld.queue_stats().unwrap_or_default(),
        disk: *sim.stats(),
        now_us: sim.now_us(),
    }
}

/// MINIX over LLD on the paper's 400 MB partition.
fn format_minix<T: Timer>(timer: &T) -> Result<Fs<T>, String> {
    let disk = Timed::new(rig::disk(), timer.clone());
    let store = LdStore::format(disk, rig::lld_config())
        .map_err(|e| format!("set-up failed: format LLD: {e}"))?;
    Fs::format(
        Timed::new(store, timer.clone()),
        rig::minix_config(),
        timer.clone(),
    )
    .map_err(|e| format!("set-up failed: format MINIX: {e}"))
}

/// Crashes the MINIX stack (all in-memory state is lost), then runs the
/// LLD recovery sweep and remounts MINIX inside a timed region. Returns
/// the remounted file system and the host seconds of the LLD sweep.
fn crash_and_recover<T: Timer>(
    fs: Fs<T>,
    meter: &mut Meter<T>,
    counters: &mut Counters,
    tally: &mut Tally,
) -> Result<(Fs<T>, LldStats, f64), String> {
    let timer = meter.timer.clone();
    let mut disk = fs.into_inner().into_store().into_inner().into_disk();
    disk.inner_mut().crash_now();
    disk.inner_mut().revive();
    let before = Probe::fresh(disk.inner());
    let (store, recovery_host_s) = meter.region(|| {
        let start = Instant::now();
        let store = timer.time(Layer::Lld, || LdStore::mount(disk, rig::lld_config()));
        (store, start.elapsed().as_secs_f64())
    });
    let store = store.map_err(|e| format!("LLD recovery failed: {e}"))?;
    let stats = *store.lld().stats();
    tally.check(!stats.recovered_from_checkpoint, || {
        "a crash must recover by the sweep, not from a checkpoint".to_string()
    });
    let fs = meter
        .region(|| {
            Fs::mount(
                Timed::new(store, timer.clone()),
                rig::minix_config(),
                timer.clone(),
            )
        })
        .map_err(|e| format!("MINIX remount failed: {e}"))?;
    counters.add_span(&before, &minix_probe(&fs));
    Ok((fs, stats, recovery_host_s))
}

/// Table 4: create (and write), read, then delete `files` small files in
/// one directory, each phase fenced by a sync and the cache dropped
/// between phases; then crash and recover.
pub fn smallfile<T: Timer>(p: &Params, timer: T) -> Result<Outcome, String> {
    let setup = thread_cpu_ns();
    let mut fs = format_minix(&timer)?;
    let names = file_names(FILES);
    let body = compressible_data(FILE_BYTES, derive(0x5F11E, p.seed));
    let contents: Vec<Vec<u8>> = (0..FILES)
        .map(|i| {
            let mut f = vec![0u8; FILE_BYTES];
            fill(&mut f, &body, FILE_BYTES, i as u64, 1, p.seed);
            f
        })
        .collect();
    let setup_s = (thread_cpu_ns() - setup) as f64 / 1e9;

    let mut meter = Meter::new(timer);
    let mut tally = Tally::default();
    let mut counters = Counters::default();
    let mut lat = Vec::with_capacity(FILES);
    let start = minix_probe(&fs);
    let (create_us, read_us, delete_us) = meter.region(|| {
        let t0 = minix_sim(&fs).now_us();
        for (name, data) in names.iter().zip(&contents) {
            let w0 = minix_sim(&fs).now_us();
            if let Some(ino) = tally.op(fs.create(name), "create") {
                tally.op(fs.write(ino, 0, data), "write");
            }
            lat.push(minix_sim(&fs).now_us() - w0);
        }
        tally.op(fs.sync(), "sync");
        let create_us = minix_sim(&fs).now_us() - t0;
        tally.op(fs.drop_caches(), "drop_caches");

        let mut buf = vec![0u8; FILE_BYTES];
        let t0 = minix_sim(&fs).now_us();
        for (name, data) in names.iter().zip(&contents) {
            let Some(ino) = tally.op(fs.lookup(name), "lookup") else {
                continue;
            };
            if let Some(got) = tally.op(fs.read(ino, 0, &mut buf), "read") {
                if got != data.len() || buf != *data {
                    tally.bad_read(format!("read {name}: {got} bytes, contents differ"));
                }
            }
        }
        let read_us = minix_sim(&fs).now_us() - t0;
        tally.op(fs.drop_caches(), "drop_caches");

        let t0 = minix_sim(&fs).now_us();
        for name in &names {
            tally.op(fs.unlink(name), "unlink");
        }
        tally.op(fs.sync(), "sync");
        (create_us, read_us, minix_sim(&fs).now_us() - t0)
    });
    counters.add_span(&start, &minix_probe(&fs));
    counters.user_bytes_written = (FILES * FILE_BYTES) as u64;

    let (mut fs, rec, recovery_host_s) =
        crash_and_recover(fs, &mut meter, &mut counters, &mut tally)?;
    // Every file was deleted and the deletes were synced before the crash.
    match fs.list_names("/") {
        Ok(left) => tally.check(left.iter().all(|n| n == "." || n == ".."), || {
            format!("{} entries survived their synced deletes", left.len())
        }),
        Err(e) => tally.check(false, || format!("readdir after recovery: {e}")),
    }

    let n = FILES as u64;
    let kb = (FILES * FILE_BYTES) as u64;
    Ok(Outcome {
        setup_s,
        host_s: meter.cpu_ns as f64 / 1e9,
        wall_s: meter.wall_ns as f64 / 1e9,
        layers: meter.layers,
        recovery_host_s,
        sim: Sim {
            write_kb_s: kb_per_s(kb, create_us),
            read_kb_s: kb_per_s(kb, read_us),
            write_lat_us: sorted(lat),
            recovery_s: rec.recovery_us as f64 / 1e6,
            phases: vec![
                ("create_per_s", ops_per_s(n, create_us), "files/sim_s"),
                ("read_per_s", ops_per_s(n, read_us), "files/sim_s"),
                ("delete_per_s", ops_per_s(n, delete_us), "files/sim_s"),
            ],
            counters,
        },
        tally,
    })
}

/// One pass of the large-file benchmark over `order`. Writes stamp each
/// 4 KB block of a chunk with `version`; reads verify it. Returns the
/// simulated duration, including the closing sync after writes.
#[allow(clippy::too_many_arguments)]
fn large_pass<T: Timer>(
    fs: &mut Fs<T>,
    ino: Ino,
    order: &[usize],
    write: bool,
    version: u64,
    body: &[u8],
    seed: u64,
    lat: &mut Vec<u64>,
    tally: &mut Tally,
) -> u64 {
    let chunk = body.len();
    let per_chunk = (chunk / BLOCK).max(1) as u64;
    let mut expect = vec![0u8; chunk];
    let mut buf = vec![0u8; chunk];
    let t0 = minix_sim(fs).now_us();
    for &i in order {
        fill(
            &mut expect,
            body,
            BLOCK,
            i as u64 * per_chunk,
            version,
            seed,
        );
        let offset = (i * chunk) as u64;
        if write {
            let w0 = minix_sim(fs).now_us();
            tally.op(fs.write(ino, offset, &expect), "write chunk");
            lat.push(minix_sim(fs).now_us() - w0);
        } else if let Some(got) = tally.op(fs.read(ino, offset, &mut buf), "read chunk") {
            if got != chunk || buf != expect {
                tally.bad_read(format!(
                    "chunk {i}: {got} bytes, expected version {version}"
                ));
            }
        }
    }
    if write {
        tally.op(fs.sync(), "sync");
    }
    minix_sim(fs).now_us() - t0
}

/// Table 5: sequential write, sequential read, random write, random read
/// and sequential re-read of one large file; then crash and recover.
pub fn largefile<T: Timer>(p: &Params, timer: T) -> Result<Outcome, String> {
    let setup = thread_cpu_ns();
    let mut fs = format_minix(&timer)?;
    let nchunks = (LARGE_BYTES / CHUNK_BYTES as u64) as usize;
    let body = compressible_data(CHUNK_BYTES, derive(0xB16F11E, p.seed));
    let seq: Vec<usize> = (0..nchunks).collect();
    let rand_write = shuffled(nchunks, derive(0xAA, p.seed));
    let rand_read = shuffled(nchunks, derive(0xBB, p.seed));
    let setup_s = (thread_cpu_ns() - setup) as f64 / 1e9;

    let mut meter = Meter::new(timer);
    let mut tally = Tally::default();
    let mut counters = Counters::default();
    let mut lat = Vec::with_capacity(2 * nchunks);
    let start = minix_probe(&fs);
    let (ino, us) = meter
        .region(|| {
            let ino = tally.op(fs.create("/bigfile"), "create")?;
            let mut pass = |order: &[usize], write: bool, version: u64, drop: bool| {
                let us = large_pass(
                    &mut fs, ino, order, write, version, &body, p.seed, &mut lat, &mut tally,
                );
                if drop {
                    tally.op(fs.drop_caches(), "drop_caches");
                }
                us
            };
            let us = [
                pass(&seq, true, 1, true),
                pass(&seq, false, 1, true),
                pass(&rand_write, true, 2, true),
                pass(&rand_read, false, 2, true),
                pass(&seq, false, 2, false),
            ];
            Some((ino, us))
        })
        .ok_or_else(|| format!("largefile could not create its file: {:?}", tally.problems))?;
    counters.add_span(&start, &minix_probe(&fs));
    counters.user_bytes_written = 2 * LARGE_BYTES;

    let (mut fs, rec, recovery_host_s) =
        crash_and_recover(fs, &mut meter, &mut counters, &mut tally)?;
    // The file was synced after its last write: a sample of chunks must
    // read back at version 2 from the recovered medium.
    let sample: Vec<usize> = (0..nchunks).step_by((nchunks / 64).max(1)).collect();
    let mut no_writes = Vec::new();
    large_pass(
        &mut fs,
        ino,
        &sample,
        false,
        2,
        &body,
        p.seed,
        &mut no_writes,
        &mut tally,
    );

    let [write_seq, read_seq, write_rand, read_rand, reread_seq] = us;
    let bytes = LARGE_BYTES;
    Ok(Outcome {
        setup_s,
        host_s: meter.cpu_ns as f64 / 1e9,
        wall_s: meter.wall_ns as f64 / 1e9,
        layers: meter.layers,
        recovery_host_s,
        sim: Sim {
            write_kb_s: kb_per_s(2 * bytes, write_seq + write_rand),
            read_kb_s: kb_per_s(3 * bytes, read_seq + read_rand + reread_seq),
            write_lat_us: sorted(lat),
            recovery_s: rec.recovery_us as f64 / 1e6,
            phases: vec![
                ("write_seq_kb_s", kb_per_s(bytes, write_seq), "KB/sim_s"),
                ("read_seq_kb_s", kb_per_s(bytes, read_seq), "KB/sim_s"),
                ("write_rand_kb_s", kb_per_s(bytes, write_rand), "KB/sim_s"),
                ("read_rand_kb_s", kb_per_s(bytes, read_rand), "KB/sim_s"),
                ("reread_seq_kb_s", kb_per_s(bytes, reread_seq), "KB/sim_s"),
            ],
            counters,
        },
        tally,
    })
}

/// LLD configured as E17's best point: SATF at queue depth 8 with
/// 128 KB segments.
pub fn cleaner_config() -> LldConfig {
    LldConfig {
        segment_bytes: 128 << 10,
        queue_depth: 8,
        writeback_depth: 7,
        scheduler: Scheduler::Satf,
        ..rig::lld_config()
    }
}

/// The blocks the cleaner workload overwrites, in order: 90% of the draws
/// fall on the hottest 10% of the `nblocks` blocks.
pub fn overwrite_draws(seed: u64, nblocks: usize, writes: usize) -> Vec<usize> {
    let hot = nblocks / 10;
    let mut r = rng(derive(0xC01D, seed));
    (0..writes)
        .map(|_| {
            if r.gen_bool(0.9) {
                r.gen_range(0..hot)
            } else {
                r.gen_range(hot..nblocks)
            }
        })
        .collect()
}

type Ld<T> = Timed<Lld<Dev<T>>, T>;

fn ld_probe<T: Timer>(ld: &Ld<T>) -> Probe {
    let lld = ld.inner();
    let sim = lld.disk().inner();
    Probe {
        cache: (0, 0),
        lld: *lld.stats(),
        queue: lld.queue_stats().unwrap_or_default(),
        disk: *sim.stats(),
        now_us: sim.now_us(),
    }
}

fn ldck_clean(image: &[u8], config: &LldConfig, when: &str, tally: &mut Tally) {
    let report = ldck::check_image(image, config);
    tally.check(report.is_clean(), || {
        format!(
            "ldck {when}: {:?}",
            report.errors().take(3).collect::<Vec<_>>()
        )
    });
}

/// Raw LLD on a 70%-full disk: hot/cold (90/10) 4 KB overwrites, a flush,
/// a crash, the recovery sweep, and a read-back of every block.
pub fn cleaner<T: Timer>(p: &Params, timer: T) -> Result<Outcome, String> {
    let config = cleaner_config();
    let setup = thread_cpu_ns();
    let disk = Timed::new(rig::disk_sized(CLEANER_DISK_BYTES), timer.clone());
    let lld =
        Lld::format(disk, config.clone()).map_err(|e| format!("set-up failed: format: {e}"))?;
    let mut ld: Ld<T> = Timed::new(lld, timer.clone());
    let fill_err = |e: ld_core::LdError| format!("set-up failed: fill: {e}");
    let lid = ld
        .new_list(PredList::Start, ListHints::default())
        .map_err(fill_err)?;
    let nblocks = (ld.capacity_bytes() * 7 / 10 / BLOCK as u64) as usize;
    let body = compressible_data(BLOCK, derive(0xAB, p.seed));
    let mut buf = vec![0u8; BLOCK];
    let mut bids = Vec::with_capacity(nblocks);
    let mut pred = Pred::Start;
    for i in 0..nblocks {
        let b = ld.new_block(lid, pred).map_err(fill_err)?;
        fill(&mut buf, &body, BLOCK, i as u64, 0, p.seed);
        ld.write(b, &buf).map_err(fill_err)?;
        bids.push(b);
        pred = Pred::After(b);
    }
    ld.flush(FailureSet::PowerFailure).map_err(fill_err)?;
    let draws = overwrite_draws(p.seed, nblocks, p.cleaner_writes);
    let setup_s = (thread_cpu_ns() - setup) as f64 / 1e9;

    let mut meter = Meter::new(timer.clone());
    let mut tally = Tally::default();
    let mut counters = Counters::default();
    let mut lat = Vec::with_capacity(draws.len());
    let mut version = vec![0u64; nblocks];
    let start = ld_probe(&ld);
    let overwrite_us = meter.region(|| {
        let t0 = ld.inner().disk().inner().now_us();
        for (n, &i) in draws.iter().enumerate() {
            version[i] = n as u64 + 1;
            fill(&mut buf, &body, BLOCK, i as u64, version[i], p.seed);
            let w0 = ld.inner().disk().inner().now_us();
            tally.op(ld.write(bids[i], &buf), "overwrite");
            lat.push(ld.inner().disk().inner().now_us() - w0);
        }
        tally.op(ld.flush(FailureSet::PowerFailure), "flush");
        ld.inner().disk().inner().now_us() - t0
    });
    counters.add_span(&start, &ld_probe(&ld));
    counters.user_bytes_written = (draws.len() * BLOCK) as u64;

    // Crash: everything not flushed is lost; the medium must check clean.
    let mut disk = ld.into_inner().into_disk();
    disk.inner_mut().crash_now();
    disk.inner_mut().revive();
    ldck_clean(
        &disk.inner().image_bytes(),
        &config,
        "after the crash",
        &mut tally,
    );

    let before = Probe::fresh(disk.inner());
    let (lld, recovery_host_s) = meter.region(|| {
        let start = Instant::now();
        let lld = timer.time(Layer::Lld, || Lld::open(disk, config.clone()));
        (lld, start.elapsed().as_secs_f64())
    });
    let mut ld: Ld<T> = Timed::new(lld.map_err(|e| format!("LLD recovery failed: {e}"))?, timer);
    let rec = *ld.inner().stats();
    tally.check(!rec.recovered_from_checkpoint, || {
        "a crash must recover by the sweep, not from a checkpoint".to_string()
    });

    // Read back every block: each must hold its last flushed version.
    let mut expect = vec![0u8; BLOCK];
    let read_us = meter.region(|| {
        let t0 = ld.inner().disk().inner().now_us();
        for (i, &b) in bids.iter().enumerate() {
            fill(&mut expect, &body, BLOCK, i as u64, version[i], p.seed);
            if let Some(got) = tally.op(ld.read(b, &mut buf), "read back") {
                if got != BLOCK || buf != expect {
                    tally.bad_read(format!("block {i}: expected version {}", version[i]));
                }
            }
        }
        ld.inner().disk().inner().now_us() - t0
    });
    counters.add_span(&before, &ld_probe(&ld));
    ldck_clean(
        &ld.inner().disk().inner().image_bytes(),
        &config,
        "after recovery",
        &mut tally,
    );

    let written = counters.user_bytes_written;
    Ok(Outcome {
        setup_s,
        host_s: meter.cpu_ns as f64 / 1e9,
        wall_s: meter.wall_ns as f64 / 1e9,
        layers: meter.layers,
        recovery_host_s,
        sim: Sim {
            write_kb_s: kb_per_s(written, overwrite_us),
            read_kb_s: kb_per_s((nblocks * BLOCK) as u64, read_us),
            write_lat_us: sorted(lat),
            recovery_s: rec.recovery_us as f64 / 1e6,
            phases: vec![
                (
                    "overwrite_kb_s",
                    kb_per_s(written, overwrite_us),
                    "KB/sim_s",
                ),
                (
                    "segments_cleaned",
                    counters.segments_cleaned as f64,
                    "count",
                ),
                ("recovery_s", rec.recovery_us as f64 / 1e6, "sim_s"),
                (
                    "readback_kb_s",
                    kb_per_s((nblocks * BLOCK) as u64, read_us),
                    "KB/sim_s",
                ),
            ],
            counters,
        },
        tally,
    })
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// The nearest-rank `q`-quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
