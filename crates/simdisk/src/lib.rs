//! Simulated disk substrate for the Logical Disk reproduction.
//!
//! The paper's evaluation ran on an HP C3010 (SCSI-II, ~2 GB, 5400 rpm,
//! 11.5 ms average seek) behind SunOS raw-disk system calls. This crate
//! substitutes a deterministic simulator with the same mechanical behaviour:
//!
//! - CHS [`Geometry`] with sector-granularity addressing,
//! - a [`TimingModel`] with a square-root seek curve, explicit rotational
//!   position, per-sector transfer, head/cylinder switch costs, and
//!   per-command overhead,
//! - sparse in-memory storage (capacity-independent memory use),
//! - crash injection ([`SimDisk::crash_now`]) and a write recorder that
//!   rebuilds the disk as a crash at any sector, torn writes included,
//!   would have left it ([`CrashImages`]),
//! - per-request [`DiskStats`] so benchmarks can attribute simulated time.
//!
//! Two devices are provided: [`SimDisk`] (full timing model, used by every
//! experiment) and [`MemDisk`] (zero-cost, used by unit tests that only care
//! about contents). Both implement [`BlockDev`].

mod faults;
mod geometry;
pub mod queue;
mod record;
#[cfg(test)]
mod reference;
mod stats;
mod store;
mod timing;

pub use faults::FaultConfig;
pub use geometry::{Chs, Geometry, SECTOR_SIZE};
pub use queue::{Completion, QueueStats, RequestQueue, Scheduler};
pub use record::CrashImages;
pub use stats::DiskStats;
pub use timing::{hp_c3010, TimingModel};

use faults::FaultState;
use store::SparseStore;

/// Errors returned by simulated block devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskError {
    /// The request touches sectors beyond the end of the device.
    OutOfRange {
        /// First sector of the offending request.
        sector: u64,
        /// Sectors requested.
        count: u64,
    },
    /// The buffer length is not a whole number of sectors.
    Misaligned {
        /// Offending buffer length in bytes.
        len: usize,
    },
    /// The device is down after a crash; call [`SimDisk::revive`] first.
    Down,
    /// A media fault made this sector unreadable on this attempt (see
    /// [`FaultConfig`]); transient faults succeed on retry, latent and
    /// grown defects persist until the sector is abandoned.
    Unreadable {
        /// The sector that failed to read.
        sector: u64,
    },
}

impl std::fmt::Display for DiskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiskError::OutOfRange { sector, count } => {
                write!(f, "request for {count} sectors at {sector} is out of range")
            }
            DiskError::Misaligned { len } => {
                write!(f, "buffer of {len} bytes is not sector aligned")
            }
            DiskError::Down => write!(f, "device is down after a crash"),
            DiskError::Unreadable { sector } => {
                write!(f, "media fault: sector {sector} unreadable")
            }
        }
    }
}

impl std::error::Error for DiskError {}

/// A sector-addressed block device with a simulated clock.
///
/// The clock is the backbone of every experiment: devices advance it while
/// servicing requests, and hosts advance it explicitly (via
/// [`advance_us`](BlockDev::advance_us)) to model computation between
/// requests. Throughput numbers in the reproduced tables are derived from
/// this clock, never from wall-clock time.
pub trait BlockDev {
    /// Number of addressable sectors.
    fn total_sectors(&self) -> u64;

    /// Reads `buf.len() / SECTOR_SIZE` sectors starting at `sector`.
    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError>;

    /// Writes `data.len() / SECTOR_SIZE` sectors starting at `sector`.
    fn write_sectors(&mut self, sector: u64, data: &[u8]) -> Result<(), DiskError>;

    /// Current simulated time in microseconds.
    fn now_us(&self) -> u64;

    /// Advances simulated time by `us` without touching the medium (host
    /// computation, think time, modeled CPU costs).
    fn advance_us(&mut self, us: u64);

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64 {
        self.total_sectors() * SECTOR_SIZE as u64
    }

    /// Bytes of battery-backed NVRAM attached to the device (0 = none).
    ///
    /// Baker et al. (ASPLOS 1992) showed 0.5 MB of NVRAM absorbs most
    /// partially-written segments in an LFS; the paper (§5.3) expects "that
    /// similar results can be obtained for LLD". NVRAM contents survive
    /// crashes but not device replacement.
    fn nvram_bytes(&self) -> usize {
        0
    }

    /// Writes into NVRAM at `offset`. Fails [`DiskError::OutOfRange`] when
    /// the device has no (or too little) NVRAM.
    fn nvram_write(&mut self, offset: usize, data: &[u8]) -> Result<(), DiskError> {
        let _ = offset;
        Err(DiskError::OutOfRange {
            sector: 0,
            count: data.len() as u64,
        })
    }

    /// Reads from NVRAM at `offset`.
    fn nvram_read(&mut self, offset: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        let _ = offset;
        Err(DiskError::OutOfRange {
            sector: 0,
            count: buf.len() as u64,
        })
    }

    /// Scheduling hint: the cylinder holding `sector`. Devices without
    /// mechanical positions (see [`MemDisk`]) return 0, which degrades
    /// every scheduler in [`queue`] to FCFS tie-breaking.
    fn sched_cylinder(&self, sector: u64) -> u64 {
        let _ = sector;
        0
    }

    /// Scheduling hint: the cylinder the head currently rests on.
    fn sched_head_cylinder(&self) -> u64 {
        0
    }

    /// Scheduling hint: estimated positioning cost (command overhead +
    /// seek + rotational wait, in microseconds) to begin a transfer at
    /// `sector` if it were dispatched right now. Pure: consults only the
    /// simulated clock, the head position and the drive's read-ahead
    /// buffer, never changes any of them.
    ///
    /// A `sector` inside the read-ahead buffer costs the command overhead
    /// alone, which is what a read served from the buffer is charged
    /// before its bus transfer. The hint sees neither the length nor the
    /// direction of the request, so it over-credits two requests that
    /// start in the buffer: a read that runs past the buffer's end, and a
    /// write (both go to the platter). LLD's queued reads end at a segment
    /// end. After one of them the buffer ends at a segment end too when the
    /// segment size divides the buffer's (128 KB segments, 256 sectors),
    /// so the next queued read that starts in the buffer ends in it.
    fn sched_access_us(&self, sector: u64) -> u64 {
        let _ = sector;
        0
    }

    /// The event tracer attached to the device, if any. The device owns
    /// the one tracer of a stack: every layer above records its events
    /// here, so they interleave into one timeline.
    fn tracer(&self) -> Option<&ld_trace::Tracer> {
        None
    }

    /// Records `event` on the device's tracer at the current simulated
    /// time (no-op untraced).
    #[inline]
    fn trace(&self, event: ld_trace::Event) {
        if let Some(t) = self.tracer() {
            t.record(self.now_us(), event);
        }
    }
}

/// The full disk simulator.
#[derive(Debug)]
pub struct SimDisk {
    geometry: Geometry,
    timing: TimingModel,
    store: SparseStore,
    clock_us: u64,
    head_cylinder: u32,
    stats: DiskStats,
    /// Sector range currently held in the drive's read-ahead buffer.
    cache_range: (u64, u64),
    /// Battery-backed NVRAM; survives crashes.
    nvram: Vec<u8>,
    down: bool,
    /// Media-fault model; `None` (the default) costs one branch per run.
    faults: Option<FaultState>,
    /// Optional event tracer; `None` costs one branch per request.
    tracer: Option<ld_trace::Tracer>,
    /// Write log for crash images; `None` costs one branch per run.
    recording: Option<Box<CrashImages>>,
}

impl SimDisk {
    /// Creates a zero-filled disk with the given geometry and timing.
    pub fn new(geometry: Geometry, timing: TimingModel) -> Self {
        Self {
            geometry,
            timing,
            store: SparseStore::new(geometry.total_sectors()),
            clock_us: 0,
            head_cylinder: 0,
            stats: DiskStats::default(),
            cache_range: (0, 0),
            nvram: Vec::new(),
            down: false,
            faults: None,
            tracer: None,
            recording: None,
        }
    }

    /// Attaches `bytes` of battery-backed NVRAM (zero-initialized).
    pub fn with_nvram(mut self, bytes: usize) -> Self {
        self.nvram = vec![0u8; bytes];
        self
    }

    /// Creates the paper's HP C3010 disk (full ~2 GB capacity).
    pub fn hp_c3010() -> Self {
        Self::new(hp_c3010::geometry(), hp_c3010::timing())
    }

    /// Creates an HP C3010-like disk with at least `bytes` capacity — the
    /// paper's benchmarks use a 400 MB partition of the 2 GB drive.
    pub fn hp_c3010_with_capacity(bytes: u64) -> Self {
        Self::new(hp_c3010::geometry_with_capacity(bytes), hp_c3010::timing())
    }

    /// The device geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The timing model.
    pub fn timing(&self) -> &TimingModel {
        &self.timing
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Resets statistics to zero (the clock is left running). A traced
    /// span's attribution is a [`DiskStats::delta_since`] its start, so
    /// it must not straddle a reset.
    pub fn reset_stats(&mut self) {
        self.stats = DiskStats::default();
    }

    /// Attaches the stack's event tracer (see [`BlockDev::tracer`]). Every
    /// subsequent microsecond of busy time is reported as a typed event
    /// ([`ld_trace::Event`]), so while the ring drops nothing the events
    /// sum, per component, to the [`DiskStats`] delta from this call on.
    /// The tracer stays attached across crashes, revives and remounts.
    /// Tracing never touches the simulated clock: timings are
    /// bit-identical with or without a tracer.
    pub fn set_tracer(&mut self, tracer: ld_trace::Tracer) {
        self.tracer = Some(tracer);
    }

    /// Bytes of host memory committed to disk contents.
    pub fn resident_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    /// Crashes the device immediately; all subsequent requests fail with
    /// [`DiskError::Down`] until revived. Contents already written persist.
    /// A crash inside a request, a torn write, is built from a recording
    /// instead ([`record_writes`](Self::record_writes)).
    pub fn crash_now(&mut self) {
        self.down = true;
    }

    /// Brings a crashed device back online. The medium retains exactly
    /// the sectors that were durably written; media-fault
    /// state (grown defects, transient counters) also survives. The
    /// drive's read-ahead buffer does not: it lost power with the host.
    pub fn revive(&mut self) {
        self.down = false;
        self.cache_range = (0, 0);
    }

    /// Starts recording from the current medium and NVRAM, replacing a
    /// recording already running: from now on every sector run that
    /// lands and every NVRAM write is logged, in order, so that
    /// [`take_recording`](Self::take_recording) can rebuild the disk as a
    /// crash at any point of the run would have left it. Recording
    /// charges no simulated time and changes nothing the disk does.
    pub fn record_writes(&mut self) {
        let (medium, nvram) = (self.store.snapshot(), self.nvram.clone());
        let nonzero = self.store.allocated_pages();
        let images = CrashImages::new(self.geometry, self.timing, medium, nonzero, nvram);
        self.recording = Some(Box::new(images));
    }

    /// Positions logged since [`record_writes`](Self::record_writes), one
    /// per sector and one per NVRAM write (0 when not recording): the
    /// prefix of the log that is persistent now.
    pub fn recorded_writes(&self) -> u64 {
        self.recording.as_ref().map_or(0, |images| images.writes())
    }

    /// Stops recording and returns the crash images of the recorded run,
    /// or `None` if the disk was not recording.
    pub fn take_recording(&mut self) -> Option<CrashImages> {
        let mut images = self.recording.take()?;
        images.advance_to(0);
        Some(*images)
    }

    /// Enables the deterministic media-fault model. Faults survive crashes
    /// and revives (they are properties of the medium, not of the host).
    pub fn set_faults(&mut self, config: FaultConfig) {
        self.faults = Some(FaultState::new(config));
    }

    /// Disables media-fault injection.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// The raw disk image as one contiguous byte buffer. Out-of-band
    /// analysis access (`ldck`): charges no simulated time, records no
    /// stats, and works even while the device is down after a crash.
    pub fn image_bytes(&self) -> Vec<u8> {
        self.store.snapshot()
    }

    /// Restores the medium from an [`image_bytes`](Self::image_bytes)
    /// snapshot of an identically-sized device. Out-of-band like its
    /// counterpart: charges no simulated time, records no stats, and does
    /// not consult the fault model — it models swapping platters in, not
    /// I/O. The drive's read-ahead buffer is discarded (it cached the old
    /// platters).
    ///
    /// # Panics
    ///
    /// Panics if the image size does not match this device's capacity.
    pub fn load_image(&mut self, image: &[u8]) {
        self.store.load(image, |_| true);
        self.cache_range = (0, 0);
    }

    /// Positions the head and clock for a transfer: charges per-command
    /// overhead, the seek, and the rotational wait for the first sector.
    fn position_for(&mut self, sector: u64) {
        self.clock_us += self.timing.command_overhead_us;
        self.stats.overhead_us += self.timing.command_overhead_us;
        if self.timing.command_overhead_us > 0 {
            self.trace(ld_trace::Event::CmdOverhead {
                us: self.timing.command_overhead_us,
            });
        }

        let chs = self.geometry.chs(sector);
        let seek = self
            .timing
            .seek_us(&self.geometry, self.head_cylinder, chs.cylinder);
        if seek > 0 {
            self.trace(ld_trace::Event::SeekStart {
                from_cyl: self.head_cylinder,
                to_cyl: chs.cylinder,
            });
            self.stats.seeks += 1;
            self.stats.seek_us += seek;
            self.clock_us += seek;
            self.head_cylinder = chs.cylinder;
            self.trace(ld_trace::Event::SeekDone { us: seek });
        }

        let rot = self
            .timing
            .rotational_wait_us(&self.geometry, self.clock_us, chs.sector);
        self.stats.rotation_us += rot;
        self.clock_us += rot;
        if rot > 0 {
            self.trace(ld_trace::Event::RotWait { us: rot });
        }
    }

    /// Transfers `count` sectors starting at `sector` in whole track runs,
    /// advancing the clock across track and cylinder boundaries. `op` is
    /// called once per run with the disk (its clock at the start of the
    /// run), the run's first sector and its length; it moves the run's
    /// bytes, or aborts the transfer with the number of the run's sectors
    /// to charge (a read fault, up to and including the sector that
    /// failed).
    fn transfer<F>(&mut self, sector: u64, count: u64, mut op: F) -> Result<(), DiskError>
    where
        F: FnMut(&mut Self, u64, u64) -> Result<(), (u64, DiskError)>,
    {
        let sector_us = self.timing.sector_us(&self.geometry);
        let spt = u64::from(self.geometry.sectors_per_track);
        let first = self.geometry.chs(sector);
        let mut cylinder = first.cylinder;
        let mut run = sector;
        let mut len = (spt - u64::from(first.sector)).min(count);
        let end = sector + count;
        let mut moved = 0u64;
        let result = loop {
            let (charged, outcome) = match op(self, run, len) {
                Ok(()) => (len, Ok(())),
                Err((charged, e)) => (charged, Err(e)),
            };
            self.clock_us += charged * sector_us;
            self.stats.transfer_us += charged * sector_us;
            moved += charged;
            run += len;
            if outcome.is_err() || run == end {
                break outcome;
            }
            // Crossed a track boundary. Layout skew is assumed to match the
            // switch cost, so no extra rotational wait is charged.
            let next = self.geometry.cylinder_of(run);
            let t = if next != cylinder {
                self.head_cylinder = next;
                self.timing.min_seek_us
            } else {
                self.timing.head_switch_us
            };
            self.stats.switch_us += t;
            self.clock_us += t;
            self.trace(ld_trace::Event::HeadSwitch { us: t });
            cylinder = next;
            len = spt.min(end - run);
        };
        if moved > 0 {
            self.trace(ld_trace::Event::Transfer {
                sectors: moved,
                us: moved * sector_us,
            });
        }
        result
    }

    /// Whether `sector` is in the drive's read-ahead buffer.
    fn buffered(&self, sector: u64) -> bool {
        let (c0, c1) = self.cache_range;
        self.timing.readahead_buffer_sectors > 0 && (c0..c1).contains(&sector)
    }

    fn check(&self, sector: u64, len: usize) -> Result<u64, DiskError> {
        if self.down {
            return Err(DiskError::Down);
        }
        if len == 0 || !len.is_multiple_of(SECTOR_SIZE) {
            return Err(DiskError::Misaligned { len });
        }
        let count = (len / SECTOR_SIZE) as u64;
        if sector
            .checked_add(count)
            .is_none_or(|end| end > self.geometry.total_sectors())
        {
            return Err(DiskError::OutOfRange { sector, count });
        }
        Ok(count)
    }
}

impl BlockDev for SimDisk {
    fn total_sectors(&self) -> u64 {
        self.geometry.total_sectors()
    }

    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        let count = self.check(sector, buf.len())?;
        self.stats.read_ops += 1;
        // Drive read-ahead buffer: a request entirely within the buffered
        // range is served at bus speed with no mechanical activity (the
        // drive filled its cache segment while the host was busy).
        if self.buffered(sector) && sector + count <= self.cache_range.1 {
            self.stats.cached_reads += 1;
            self.trace(ld_trace::Event::CacheHit {
                sector,
                sectors: count,
            });
            self.clock_us += self.timing.command_overhead_us;
            self.stats.overhead_us += self.timing.command_overhead_us;
            if self.timing.command_overhead_us > 0 {
                self.trace(ld_trace::Event::CmdOverhead {
                    us: self.timing.command_overhead_us,
                });
            }
            let t = count * self.timing.bus_sector_us;
            self.clock_us += t;
            self.stats.transfer_us += t;
            if t > 0 {
                self.trace(ld_trace::Event::Transfer {
                    sectors: count,
                    us: t,
                });
            }
            self.store.read_run(sector, buf);
            self.stats.sectors_read += count;
            return Ok(());
        }
        if self.timing.readahead_buffer_sectors > 0 {
            self.stats.cache_misses += 1;
            self.trace(ld_trace::Event::CacheMiss {
                sector,
                sectors: count,
            });
        }
        self.position_for(sector);
        let sector_us = self.timing.sector_us(&self.geometry);
        self.transfer(sector, count, |disk, s, n| {
            // Each sector's fault query runs at that sector's own clock;
            // the sectors ahead of a failure are read, the rest are not.
            let start = disk.clock_us;
            let failed = disk
                .faults
                .as_mut()
                .and_then(|f| (0..n).find(|&i| f.read_fails(s + i, start + (i + 1) * sector_us)));
            let good = failed.unwrap_or(n);
            let at = (s - sector) as usize * SECTOR_SIZE;
            disk.store
                .read_run(s, &mut buf[at..at + good as usize * SECTOR_SIZE]);
            disk.stats.sectors_read += good;
            match failed {
                None => Ok(()),
                Some(i) => {
                    disk.stats.read_faults += 1;
                    Err((i + 1, DiskError::Unreadable { sector: s + i }))
                }
            }
        })?;
        // The drive keeps reading ahead into its buffer; the head ends up
        // at the end of the buffered range.
        if self.timing.readahead_buffer_sectors > 0 {
            let mut end = (sector + count + self.timing.readahead_buffer_sectors)
                .min(self.geometry.total_sectors());
            if let Some(f) = &self.faults {
                // Read-ahead stops at the first persistently bad sector —
                // the drive cannot buffer what it cannot read.
                let mut e = sector + count;
                while e < end && !f.persistently_bad(e) {
                    e += 1;
                }
                end = e;
            }
            self.cache_range = (sector, end);
            self.head_cylinder = self.geometry.cylinder_of(end - 1);
        }
        Ok(())
    }

    fn write_sectors(&mut self, sector: u64, data: &[u8]) -> Result<(), DiskError> {
        let count = self.check(sector, data.len())?;
        self.stats.write_ops += 1;
        // Writes move the head and may invalidate buffered data; drop the
        // read-ahead buffer (conservative, like disabling write caching).
        self.cache_range = (0, 0);
        self.position_for(sector);
        self.transfer(sector, count, |disk, s, n| {
            let at = (s - sector) as usize * SECTOR_SIZE;
            let run = &data[at..at + n as usize * SECTOR_SIZE];
            disk.store.write_run(s, run);
            if let Some(r) = disk.recording.as_mut() {
                r.landed(s, run);
            }
            disk.stats.sectors_written += n;
            if let Some(f) = disk.faults.as_mut() {
                // A grown defect fires silently: the write lands, the
                // damage shows up on the next read of the sector.
                for w in s..s + n {
                    f.write_grows_defect(w);
                }
            }
            Ok(())
        })
    }

    fn now_us(&self) -> u64 {
        self.clock_us
    }

    fn advance_us(&mut self, us: u64) {
        self.clock_us += us;
    }

    fn nvram_bytes(&self) -> usize {
        self.nvram.len()
    }

    fn nvram_write(&mut self, offset: usize, data: &[u8]) -> Result<(), DiskError> {
        if self.down {
            return Err(DiskError::Down);
        }
        if offset
            .checked_add(data.len())
            .is_none_or(|end| end > self.nvram.len())
        {
            return Err(DiskError::OutOfRange {
                sector: offset as u64,
                count: data.len() as u64,
            });
        }
        self.nvram[offset..offset + data.len()].copy_from_slice(data);
        if let Some(r) = self.recording.as_mut() {
            r.nvram_written(offset, data);
        }
        // Battery-backed RAM over the host bus: ~2 µs per 512 bytes.
        self.clock_us += 2 * (data.len().div_ceil(512) as u64);
        Ok(())
    }

    fn nvram_read(&mut self, offset: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        if self.down {
            return Err(DiskError::Down);
        }
        if offset
            .checked_add(buf.len())
            .is_none_or(|end| end > self.nvram.len())
        {
            return Err(DiskError::OutOfRange {
                sector: offset as u64,
                count: buf.len() as u64,
            });
        }
        buf.copy_from_slice(&self.nvram[offset..offset + buf.len()]);
        self.clock_us += 2 * (buf.len().div_ceil(512) as u64);
        Ok(())
    }

    fn sched_cylinder(&self, sector: u64) -> u64 {
        if sector >= self.geometry.total_sectors() {
            return 0;
        }
        u64::from(self.geometry.cylinder_of(sector))
    }

    fn sched_head_cylinder(&self) -> u64 {
        u64::from(self.head_cylinder)
    }

    fn sched_access_us(&self, sector: u64) -> u64 {
        // A buffered sector is what `read_sectors` charges a hit before its
        // transfer. Any other mirrors `position_for` without side effects:
        // overhead, then the seek, then the rotational wait evaluated at the
        // clock the platter would show once the head arrives.
        if sector >= self.geometry.total_sectors() {
            return u64::MAX;
        }
        if self.buffered(sector) {
            return self.timing.command_overhead_us;
        }
        let chs = self.geometry.chs(sector);
        let seek = self
            .timing
            .seek_us(&self.geometry, self.head_cylinder, chs.cylinder);
        let arrive = self.clock_us + self.timing.command_overhead_us + seek;
        let rot = self
            .timing
            .rotational_wait_us(&self.geometry, arrive, chs.sector);
        self.timing.command_overhead_us + seek + rot
    }

    fn tracer(&self) -> Option<&ld_trace::Tracer> {
        self.tracer.as_ref()
    }
}

/// A timing-free in-memory device for unit tests that only care about
/// contents. The clock ticks by one microsecond per request so ordering
/// observations still work.
#[derive(Debug)]
pub struct MemDisk {
    store: SparseStore,
    clock_us: u64,
}

impl MemDisk {
    /// Creates a zero-filled device with `total_sectors` sectors.
    pub fn new(total_sectors: u64) -> Self {
        Self {
            store: SparseStore::new(total_sectors),
            clock_us: 0,
        }
    }

    /// Creates a device with at least `bytes` capacity.
    pub fn with_capacity(bytes: u64) -> Self {
        Self::new(bytes.div_ceil(SECTOR_SIZE as u64))
    }

    /// The raw disk image as one contiguous byte buffer (see
    /// [`SimDisk::image_bytes`]).
    pub fn image_bytes(&self) -> Vec<u8> {
        self.store.snapshot()
    }

    /// Restores the medium from an [`image_bytes`](Self::image_bytes)
    /// snapshot of an identically-sized device (see
    /// [`SimDisk::load_image`]).
    ///
    /// # Panics
    ///
    /// Panics if the image size does not match this device's capacity.
    pub fn load_image(&mut self, image: &[u8]) {
        self.store.load(image, |_| true);
    }
}

impl BlockDev for MemDisk {
    fn total_sectors(&self) -> u64 {
        self.store.total_sectors()
    }

    fn read_sectors(&mut self, sector: u64, buf: &mut [u8]) -> Result<(), DiskError> {
        if buf.is_empty() || !buf.len().is_multiple_of(SECTOR_SIZE) {
            return Err(DiskError::Misaligned { len: buf.len() });
        }
        let count = (buf.len() / SECTOR_SIZE) as u64;
        if sector
            .checked_add(count)
            .is_none_or(|end| end > self.total_sectors())
        {
            return Err(DiskError::OutOfRange { sector, count });
        }
        self.store.read_run(sector, buf);
        self.clock_us += 1;
        Ok(())
    }

    fn write_sectors(&mut self, sector: u64, data: &[u8]) -> Result<(), DiskError> {
        if data.is_empty() || !data.len().is_multiple_of(SECTOR_SIZE) {
            return Err(DiskError::Misaligned { len: data.len() });
        }
        let count = (data.len() / SECTOR_SIZE) as u64;
        if sector
            .checked_add(count)
            .is_none_or(|end| end > self.total_sectors())
        {
            return Err(DiskError::OutOfRange { sector, count });
        }
        self.store.write_run(sector, data);
        self.clock_us += 1;
        Ok(())
    }

    fn now_us(&self) -> u64 {
        self.clock_us
    }

    fn advance_us(&mut self, us: u64) {
        self.clock_us += us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_disk() -> SimDisk {
        // 16 MB-ish disk with C3010 timing for fast tests.
        SimDisk::hp_c3010_with_capacity(16 << 20)
    }

    #[test]
    fn roundtrip_multi_sector() {
        let mut disk = small_disk();
        let data: Vec<u8> = (0..4 * SECTOR_SIZE).map(|i| (i % 255) as u8).collect();
        disk.write_sectors(100, &data).unwrap();
        let mut buf = vec![0u8; data.len()];
        disk.read_sectors(100, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn misaligned_and_out_of_range_rejected() {
        let mut disk = small_disk();
        let mut buf = vec![0u8; 100];
        assert_eq!(
            disk.read_sectors(0, &mut buf),
            Err(DiskError::Misaligned { len: 100 })
        );
        let mut buf = vec![0u8; SECTOR_SIZE];
        let last = disk.total_sectors();
        assert!(matches!(
            disk.read_sectors(last, &mut buf),
            Err(DiskError::OutOfRange { .. })
        ));
        // Overflowing sector+count must not panic.
        assert!(matches!(
            disk.write_sectors(u64::MAX, &buf),
            Err(DiskError::OutOfRange { .. })
        ));
    }

    #[test]
    fn clock_advances_while_servicing() {
        let mut disk = small_disk();
        let t0 = disk.now_us();
        let data = vec![7u8; 8 * SECTOR_SIZE];
        disk.write_sectors(0, &data).unwrap();
        assert!(disk.now_us() > t0);
        let stats = *disk.stats();
        assert_eq!(stats.write_ops, 1);
        assert_eq!(stats.sectors_written, 8);
        assert_eq!(stats.busy_us(), disk.now_us() - t0);
    }

    #[test]
    fn sequential_large_write_hits_paper_bandwidth() {
        // Section 4.2: "A user-level process writing 0.5 Mbyte segments to
        // the disk partition in a tight loop achieves a throughput of
        // 2400 Kbyte/s on this configuration."
        let mut disk = SimDisk::hp_c3010_with_capacity(64 << 20);
        let seg = vec![0xABu8; 512 << 10];
        let t0 = disk.now_us();
        let mut sector = 0;
        let total = 32u64; // 16 MB in 0.5 MB segments.
        for _ in 0..total {
            disk.write_sectors(sector, &seg).unwrap();
            sector += (seg.len() / SECTOR_SIZE) as u64;
        }
        let elapsed_s = (disk.now_us() - t0) as f64 / 1e6;
        let kb_per_s = (total as f64 * 512.0) / elapsed_s;
        assert!(
            (2100.0..=2700.0).contains(&kb_per_s),
            "0.5MB segment throughput {kb_per_s:.0} KB/s should be near 2400"
        );
    }

    #[test]
    fn back_to_back_small_writes_lose_a_revolution() {
        // Section 4.2: "a program that writes back-to-back 4-Kbyte blocks to
        // the disk achieves a throughput of only 300 Kbyte per second".
        let mut disk = SimDisk::hp_c3010_with_capacity(64 << 20);
        let block = vec![0x5Au8; 4096];
        let t0 = disk.now_us();
        let n = 256u64; // 1 MB total.
        for i in 0..n {
            disk.write_sectors(i * 8, &block).unwrap();
        }
        let elapsed_s = (disk.now_us() - t0) as f64 / 1e6;
        let kb_per_s = (n as f64 * 4.0) / elapsed_s;
        assert!(
            (250.0..=400.0).contains(&kb_per_s),
            "back-to-back 4KB throughput {kb_per_s:.0} KB/s should be near 300"
        );
    }

    /// A recording whose log interleaves NVRAM writes with two requests.
    fn recorded_run() -> (SimDisk, Vec<u8>, CrashImages) {
        let mut disk = small_disk().with_nvram(4096);
        disk.write_sectors(5, &[0x11u8; SECTOR_SIZE]).unwrap();
        let base = disk.image_bytes();
        disk.record_writes();
        disk.write_sectors(0, &[0xEEu8; 8 * SECTOR_SIZE]).unwrap();
        assert_eq!(disk.recorded_writes(), 8);
        disk.nvram_write(0, &[7u8; 16]).unwrap();
        assert_eq!(disk.recorded_writes(), 9);
        disk.write_sectors(200, &[0x22u8; 4 * SECTOR_SIZE]).unwrap();
        disk.nvram_write(16, &[8u8; 16]).unwrap();
        let images = disk.take_recording().unwrap();
        assert_eq!(disk.recorded_writes(), 0, "taking the recording stops it");
        (disk, base, images)
    }

    #[test]
    fn every_prefix_lands_exactly_the_sectors_before_it() {
        let (mut disk, base, mut images) = recorded_run();
        // Twelve sectors and two NVRAM writes, one position each.
        assert_eq!(images.writes(), 14);
        // Position by position: the sector written, or `None` for an NVRAM
        // write.
        let order: Vec<Option<usize>> = (0..8)
            .map(Some)
            .chain([None])
            .chain((200..204).map(Some))
            .chain([None])
            .collect();
        for n in 0..=14 {
            images.advance_to(n);
            // The base, then the first `n` positions in the order written:
            // prefix 0 is the base, and 1..8 tear the first request.
            let mut medium = base.clone();
            for &s in order[..n as usize].iter().flatten() {
                let byte = if s < 8 { 0xEE } else { 0x22 };
                medium[s * SECTOR_SIZE..(s + 1) * SECTOR_SIZE].fill(byte);
            }
            assert!(images.medium() == medium.as_slice(), "prefix {n}");
            // Each NVRAM write has its own position: prefix 8 holds the
            // whole first request without the NVRAM write that followed
            // it, prefix 9 adds it, and only the full prefix has the last.
            assert_eq!(images.nvram()[..16] == [7; 16], n >= 9, "prefix {n}");
            assert_eq!(images.nvram()[16..32] == [8; 16], n == 14, "prefix {n}");
            // A disk booted from the prefix holds it; rendering a written
            // disk on the working image shows that disk, then puts the
            // prefix back (checked by the next round).
            let mut booted = images.disk();
            assert!(booted.image_bytes() == medium, "prefix {n}");
            booted.write_sectors(300, &[3u8; SECTOR_SIZE]).unwrap();
            let image = booted.image_bytes();
            assert!(images.with_medium_of(&booted, |m| m == image.as_slice()));
            let blank = small_disk();
            assert!(images.with_medium_of(&blank, |m| m.iter().all(|&b| b == 0)));
        }
        // The full prefix is the state the run ended in.
        let mut nvram = vec![0u8; 4096];
        disk.nvram_read(0, &mut nvram).unwrap();
        assert_eq!(images.nvram(), &nvram[..]);
        assert!(images.medium() == disk.image_bytes().as_slice());
    }

    #[test]
    fn crash_now_preserves_previous_writes() {
        let mut disk = small_disk();
        let data = vec![9u8; SECTOR_SIZE];
        disk.write_sectors(5, &data).unwrap();
        disk.crash_now();
        let mut buf = vec![0u8; SECTOR_SIZE];
        assert_eq!(disk.read_sectors(5, &mut buf), Err(DiskError::Down));
        disk.revive();
        disk.read_sectors(5, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn memdisk_matches_simdisk_contents() {
        let mut a = MemDisk::with_capacity(1 << 20);
        let mut b = small_disk();
        let data: Vec<u8> = (0..16 * SECTOR_SIZE)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        a.write_sectors(17, &data).unwrap();
        b.write_sectors(17, &data).unwrap();
        let mut ba = vec![0u8; data.len()];
        let mut bb = vec![0u8; data.len()];
        a.read_sectors(17, &mut ba).unwrap();
        b.read_sectors(17, &mut bb).unwrap();
        assert_eq!(ba, bb);
    }

    #[test]
    fn drive_readahead_buffer_accelerates_sequential_reads() {
        let mut disk = SimDisk::hp_c3010_with_capacity(16 << 20);
        let data = vec![3u8; 64 << 10];
        disk.write_sectors(0, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        // First read misses (media access), following sequential reads hit
        // the drive's read-ahead buffer at bus speed.
        disk.read_sectors(0, &mut buf).unwrap();
        let t0 = disk.now_us();
        let hits0 = disk.stats().cached_reads;
        for i in 1..8u64 {
            disk.read_sectors(i * 8, &mut buf).unwrap();
            assert_eq!(buf, vec![3u8; 4096]);
        }
        let per_read = (disk.now_us() - t0) / 7;
        assert_eq!(disk.stats().cached_reads, hits0 + 7);
        // Bus speed: ~1.5 ms overhead + 8 × 51 µs, far below one rotation.
        assert!(
            per_read < 3_000,
            "cached sequential reads took {per_read} us each"
        );
        // A far-away read misses the buffer and re-primes it.
        let far = disk.total_sectors() - 16;
        disk.read_sectors(far, &mut buf).unwrap();
        assert_eq!(disk.stats().cached_reads, hits0 + 7);
        // A write invalidates the buffer.
        disk.read_sectors(far + 8, &mut buf).unwrap(); // Cached.
        assert_eq!(disk.stats().cached_reads, hits0 + 8);
        disk.write_sectors(0, &data[..512]).unwrap();
        disk.read_sectors(far + 8, &mut buf).unwrap(); // Miss again.
        assert_eq!(disk.stats().cached_reads, hits0 + 8);
    }

    // Regression guard: the read-ahead buffer loses power with the host,
    // so the first read after a revive inside the old buffered range goes
    // to the medium instead of being served at bus speed.
    #[test]
    fn revive_drops_the_readahead_buffer() {
        let mut disk = small_disk();
        let mut buf = vec![0u8; 4 * SECTOR_SIZE];
        disk.read_sectors(0, &mut buf).unwrap();
        disk.crash_now();
        disk.revive();
        let before = *disk.stats();
        disk.read_sectors(8, &mut buf).unwrap();
        assert_eq!(disk.stats().cache_misses, before.cache_misses + 1);
        assert_eq!(disk.stats().cached_reads, before.cached_reads);
    }

    #[test]
    fn nvram_offsets_that_overflow_are_out_of_range() {
        let mut disk = small_disk().with_nvram(4096);
        let mut buf = [0u8; 8];
        assert!(matches!(
            disk.nvram_write(usize::MAX, &buf),
            Err(DiskError::OutOfRange { .. })
        ));
        assert!(matches!(
            disk.nvram_read(usize::MAX, &mut buf),
            Err(DiskError::OutOfRange { .. })
        ));
    }

    #[test]
    fn transient_fault_fails_then_recovers_on_retry() {
        let mut disk = small_disk();
        let data = vec![0x42u8; 4 * SECTOR_SIZE];
        disk.write_sectors(64, &data).unwrap();
        disk.set_faults(FaultConfig {
            seed: 3,
            transient_ppm: 1_000_000, // Every sector.
            transient_max_failures: 2,
            ..FaultConfig::default()
        });
        let mut buf = vec![0u8; 4 * SECTOR_SIZE];
        let mut attempts = 0;
        loop {
            attempts += 1;
            match disk.read_sectors(64, &mut buf) {
                Ok(()) => break,
                Err(DiskError::Unreadable { sector }) => {
                    assert!((64..68).contains(&sector));
                    assert!(attempts < 32, "transient faults must be bounded");
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(attempts > 1, "at least one attempt must have failed");
        assert_eq!(buf, data, "recovered read returns the true contents");
        assert!(disk.stats().read_faults > 0);
    }

    #[test]
    fn latent_fault_persists_and_grown_defect_triggers_on_write() {
        let mut disk = small_disk();
        let data = vec![7u8; SECTOR_SIZE];
        disk.write_sectors(10, &data).unwrap();
        disk.set_faults(FaultConfig {
            seed: 5,
            latent_ppm: 1_000_000,
            ..FaultConfig::default()
        });
        let mut buf = vec![0u8; SECTOR_SIZE];
        for _ in 0..5 {
            assert_eq!(
                disk.read_sectors(10, &mut buf),
                Err(DiskError::Unreadable { sector: 10 })
            );
        }
        // Grown defects: readable until written.
        let mut disk = small_disk();
        disk.write_sectors(20, &data).unwrap();
        disk.set_faults(FaultConfig {
            seed: 5,
            grown_ppm: 1_000_000,
            ..FaultConfig::default()
        });
        disk.read_sectors(20, &mut buf).unwrap();
        disk.write_sectors(20, &data).unwrap();
        assert_eq!(
            disk.read_sectors(20, &mut buf),
            Err(DiskError::Unreadable { sector: 20 })
        );
    }

    #[test]
    fn fault_model_off_is_bit_identical_in_time_and_stats() {
        let run = |fault_config: Option<FaultConfig>| {
            let mut disk = small_disk();
            if let Some(cfg) = fault_config {
                disk.set_faults(cfg);
            }
            let data = vec![0x11u8; 64 << 10];
            disk.write_sectors(0, &data).unwrap();
            let mut buf = vec![0u8; 64 << 10];
            disk.read_sectors(0, &mut buf).unwrap();
            disk.read_sectors(32, &mut buf[..4096]).unwrap();
            (disk.now_us(), *disk.stats())
        };
        // No fault model vs. an attached-but-all-zero-rate model: same
        // clock, same stats — the model is free when its rates are zero.
        assert_eq!(run(None), run(Some(FaultConfig::default())));
    }

    #[test]
    fn host_think_time_shows_up_on_the_clock() {
        let mut disk = small_disk();
        let t0 = disk.now_us();
        disk.advance_us(12_345);
        assert_eq!(disk.now_us(), t0 + 12_345);
        // Think time is not disk busy time.
        assert_eq!(disk.stats().busy_us(), 0);
    }

    /// The scheduling hint against the disk's own charges.
    mod estimate {
        use proptest::prelude::*;

        use crate::{BlockDev, SimDisk, SECTOR_SIZE};

        /// One request of [`the_estimate_is_what_the_disk_charges`]'s scripts.
        #[derive(Debug, Clone, Copy)]
        enum Req {
            Read {
                at: u64,
                len: u64,
            },
            /// A read `skip` sectors past the last read's end: inside the
            /// read-ahead buffer when short, past its end when long.
            ReadOn {
                skip: u64,
                len: u64,
            },
            Write {
                at: u64,
                len: u64,
            },
            Think {
                us: u64,
            },
        }

        fn req() -> impl Strategy<Value = Req> {
            prop_oneof![
                3 => (any::<u64>(), 1u64..64).prop_map(|(at, len)| Req::Read { at, len }),
                4 => (0u64..300, 1u64..64).prop_map(|(skip, len)| Req::ReadOn { skip, len }),
                2 => (any::<u64>(), 1u64..64).prop_map(|(at, len)| Req::Write { at, len }),
                2 => (0u64..40_000).prop_map(|us| Req::Think { us }),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// `sched_access_us` before a request is the positioning the
            /// request is then charged (overhead + seek + rotation in
            /// `DiskStats`), at every clock phase, for every read that starts
            /// outside the read-ahead buffer or lies wholly inside it, and for
            /// every write that starts outside it. The two requests the hint
            /// cannot tell apart, a read that runs past the buffer's end and a
            /// write into it, cost at least the estimate.
            #[test]
            fn the_estimate_is_what_the_disk_charges(
                script in proptest::collection::vec(req(), 1..64),
            ) {
                let mut disk = SimDisk::hp_c3010_with_capacity(4 << 20);
                let total = disk.total_sectors();
                let mut last_end = 0u64;
                for (i, &r) in script.iter().enumerate() {
                    let (sector, len, write) = match r {
                        Req::Read { at, len } => (at % (total - len), len, false),
                        Req::ReadOn { skip, len } => ((last_end + skip) % (total - len), len, false),
                        Req::Write { at, len } => (at % (total - len), len, true),
                        Req::Think { us } => {
                            disk.advance_us(us);
                            continue;
                        }
                    };
                    let estimate = disk.sched_access_us(sector);
                    let exact = !disk.buffered(sector)
                        || (!write && sector + len <= disk.cache_range.1);
                    let before = *disk.stats();
                    let mut buf = vec![0u8; len as usize * SECTOR_SIZE];
                    if write {
                        disk.write_sectors(sector, &buf).unwrap();
                    } else {
                        disk.read_sectors(sector, &mut buf).unwrap();
                        last_end = sector + len;
                    }
                    let s = disk.stats();
                    let charged = (s.overhead_us - before.overhead_us)
                        + (s.seek_us - before.seek_us)
                        + (s.rotation_us - before.rotation_us);
                    if exact {
                        prop_assert_eq!(estimate, charged, "request {}: {:?}", i, r);
                    } else {
                        prop_assert!(estimate <= charged, "request {}: {:?}", i, r);
                    }
                }
            }
        }
    }
}
