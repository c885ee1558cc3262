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
//! - crash and torn-write fault injection for recovery experiments,
//! - per-request [`DiskStats`] so benchmarks can attribute simulated time.
//!
//! Two devices are provided: [`SimDisk`] (full timing model, used by every
//! experiment) and [`MemDisk`] (zero-cost, used by unit tests that only care
//! about contents). Both implement [`BlockDev`].

mod faults;
mod geometry;
pub mod queue;
mod stats;
mod store;
mod timing;

pub use faults::FaultConfig;
pub use geometry::{Chs, Geometry, SECTOR_SIZE};
pub use queue::{Completion, QueueStats, RequestQueue, Scheduler};
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
    /// An injected crash fired during this request; a prefix of the write
    /// may have reached the medium (a torn write).
    Crashed,
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
            DiskError::Crashed => write!(f, "injected crash fired during request"),
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
    /// simulated clock and head position, never moves either.
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
    /// Remaining sectors until an injected crash fires, if armed.
    crash_after_writes: Option<u64>,
    down: bool,
    /// Media-fault model; `None` (the default) costs one branch per sector.
    faults: Option<FaultState>,
    /// Optional event tracer; `None` costs one branch per request.
    tracer: Option<ld_trace::Tracer>,
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
            crash_after_writes: None,
            down: false,
            faults: None,
            tracer: None,
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

    /// Arms a crash that fires after `sectors` more sectors have been
    /// written. A crash mid-request persists the sectors written so far
    /// (a torn write), fails the request with [`DiskError::Crashed`], and
    /// takes the device [down](DiskError::Down) until [`revive`](Self::revive).
    pub fn crash_after_writes(&mut self, sectors: u64) {
        self.crash_after_writes = Some(sectors);
    }

    /// Crashes the device immediately; all subsequent requests fail with
    /// [`DiskError::Down`] until revived. Contents already written persist.
    pub fn crash_now(&mut self) {
        self.down = true;
    }

    /// Whether the device is down after a crash.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// Brings a crashed device back online, clearing any armed crash
    /// countdown (so a disk crashed via [`crash_now`](Self::crash_now)
    /// cannot immediately re-crash from a stale
    /// [`crash_after_writes`](Self::crash_after_writes)). The medium
    /// retains exactly the sectors that were durably written; media-fault
    /// state (grown defects, transient counters) also survives.
    pub fn revive(&mut self) {
        self.down = false;
        self.crash_after_writes = None;
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
        self.store.load(image);
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

    /// Transfers `count` sectors starting at `sector`, advancing the clock
    /// across track and cylinder boundaries. `op` is called once per sector
    /// with the sector number and may abort the transfer early (crash).
    fn transfer<F>(&mut self, sector: u64, count: u64, mut op: F) -> Result<(), DiskError>
    where
        F: FnMut(&mut Self, u64) -> Result<(), DiskError>,
    {
        let sector_us = self.timing.sector_us(&self.geometry);
        let mut prev_cylinder = self.geometry.chs(sector).cylinder;
        let mut moved = 0u64;
        let mut result = Ok(());
        for i in 0..count {
            let cur_sector = sector + i;
            let chs = self.geometry.chs(cur_sector);
            if i > 0 && chs.sector == 0 {
                // Crossed a track boundary. Layout skew is assumed to match
                // the switch cost, so no extra rotational wait is charged.
                if chs.cylinder != prev_cylinder {
                    let t = self.timing.min_seek_us;
                    self.stats.switch_us += t;
                    self.clock_us += t;
                    self.head_cylinder = chs.cylinder;
                    self.trace(ld_trace::Event::HeadSwitch { us: t });
                } else {
                    self.stats.switch_us += self.timing.head_switch_us;
                    self.clock_us += self.timing.head_switch_us;
                    self.trace(ld_trace::Event::HeadSwitch {
                        us: self.timing.head_switch_us,
                    });
                }
            }
            self.clock_us += sector_us;
            self.stats.transfer_us += sector_us;
            moved += 1;
            if let Err(e) = op(self, cur_sector) {
                // A crash mid-transfer: time up to and including the
                // aborting sector was already charged; report it.
                result = Err(e);
                break;
            }
            prev_cylinder = chs.cylinder;
        }
        if moved > 0 {
            self.trace(ld_trace::Event::Transfer {
                sectors: moved,
                us: moved * sector_us,
            });
        }
        result
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
        let (c0, c1) = self.cache_range;
        if self.timing.readahead_buffer_sectors > 0 && sector >= c0 && sector + count <= c1 {
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
            for (i, chunk) in buf.chunks_mut(SECTOR_SIZE).enumerate() {
                self.store.read_sector(sector + i as u64, chunk);
                self.stats.sectors_read += 1;
            }
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
        let mut bufs: Vec<&mut [u8]> = buf.chunks_mut(SECTOR_SIZE).collect();
        self.transfer(sector, count, |disk, s| {
            let now = disk.clock_us;
            if let Some(f) = disk.faults.as_mut() {
                if f.read_fails(s, now) {
                    disk.stats.read_faults += 1;
                    return Err(DiskError::Unreadable { sector: s });
                }
            }
            let idx = (s - sector) as usize;
            disk.store.read_sector(s, bufs[idx]);
            disk.stats.sectors_read += 1;
            Ok(())
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
        let chunks: Vec<&[u8]> = data.chunks(SECTOR_SIZE).collect();
        self.transfer(sector, count, |disk, s| {
            if let Some(left) = disk.crash_after_writes {
                if left == 0 {
                    disk.down = true;
                    return Err(DiskError::Crashed);
                }
                disk.crash_after_writes = Some(left - 1);
            }
            let idx = (s - sector) as usize;
            disk.store.write_sector(s, chunks[idx]);
            disk.stats.sectors_written += 1;
            if let Some(f) = disk.faults.as_mut() {
                // A grown defect fires silently: the write lands, the
                // damage shows up on the next read of the sector.
                f.write_grows_defect(s);
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
        if offset + data.len() > self.nvram.len() {
            return Err(DiskError::OutOfRange {
                sector: offset as u64,
                count: data.len() as u64,
            });
        }
        self.nvram[offset..offset + data.len()].copy_from_slice(data);
        // Battery-backed RAM over the host bus: ~2 µs per 512 bytes.
        self.clock_us += 2 * (data.len().div_ceil(512) as u64);
        Ok(())
    }

    fn nvram_read(&mut self, offset: usize, buf: &mut [u8]) -> Result<(), DiskError> {
        if self.down {
            return Err(DiskError::Down);
        }
        if offset + buf.len() > self.nvram.len() {
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
        // Mirrors `position_for` without side effects: overhead, then the
        // seek, then the rotational wait evaluated at the clock the platter
        // would show once the head arrives.
        if sector >= self.geometry.total_sectors() {
            return u64::MAX;
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
        self.store.load(image);
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
        for (i, chunk) in buf.chunks_mut(SECTOR_SIZE).enumerate() {
            self.store.read_sector(sector + i as u64, chunk);
        }
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
        for (i, chunk) in data.chunks(SECTOR_SIZE).enumerate() {
            self.store.write_sector(sector + i as u64, chunk);
        }
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

    #[test]
    fn crash_after_writes_tears_the_request() {
        let mut disk = small_disk();
        disk.crash_after_writes(3);
        let data: Vec<u8> = (0..8 * SECTOR_SIZE).map(|_| 0xEEu8).collect();
        assert_eq!(disk.write_sectors(0, &data), Err(DiskError::Crashed));
        assert!(disk.is_down());
        assert_eq!(disk.write_sectors(0, &data[..512]), Err(DiskError::Down));

        disk.revive();
        let mut buf = vec![0u8; 8 * SECTOR_SIZE];
        disk.read_sectors(0, &mut buf).unwrap();
        // Exactly the first three sectors were persisted.
        assert!(buf[..3 * SECTOR_SIZE].iter().all(|&b| b == 0xEE));
        assert!(buf[3 * SECTOR_SIZE..].iter().all(|&b| b == 0));
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

    // Regression guard: `revive` must clear a countdown armed by
    // `crash_after_writes` even when the crash actually fired via
    // `crash_now` — a revived disk with a stale countdown would re-crash
    // on the first writes after recovery.
    #[test]
    fn revive_clears_stale_crash_countdown() {
        let mut disk = small_disk();
        disk.crash_after_writes(1000);
        disk.crash_now();
        assert!(disk.is_down());
        disk.revive();
        // Write more sectors than the stale countdown allowed; with the
        // countdown cleared this must succeed.
        let data = vec![1u8; 4 * SECTOR_SIZE];
        for i in 0..300u64 {
            disk.write_sectors(i * 4, &data).unwrap();
        }
        assert!(!disk.is_down());
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
}
