//! Crash images from one recorded run.
//!
//! Instead of re-running a workload once per crash point, a test runs it
//! once with the disk recording ([`SimDisk::record_writes`]) and then
//! builds the disk as a power failure would have left it after any
//! number of the recorded sectors ([`CrashImages`]). This is how
//! CrashMonkey (Mohan et al., OSDI 2018) explores crash states: log the
//! block writes once, derive every crash state from the log.
//!
//! The log holds, in the order they reached persistent state, each run of
//! sectors written to the medium and each NVRAM write. Each sector of a
//! run and each NVRAM write takes one position in the log, and prefix `n`
//! is the state the recording started from plus the first `n` positions.
//! A prefix that ends inside a request is a torn write: the request's
//! earlier sectors landed and the rest did not. A prefix that ends just
//! before an NVRAM write is a crash between the last sector before it and
//! the write, such as a sync's last sector without the NVRAM update that
//! followed it. Sector writes and NVRAM writes are atomic, so no prefix
//! ends inside one.

use crate::store::PAGE_BYTES;
use crate::{Geometry, SimDisk, TimingModel, SECTOR_SIZE};

/// One change to persistent state.
#[derive(Debug, PartialEq)]
pub(crate) enum Landed {
    /// Consecutive sectors from `sector`, written to the medium. A run
    /// that continues the previous entry is merged into it.
    Sectors { sector: u64, data: Vec<u8> },
    /// Bytes written into NVRAM at `offset`.
    Nvram { offset: usize, data: Vec<u8> },
}

/// The disk as a crash during a recording leaves it at each prefix of
/// the log, visited in increasing prefix order on one working image
/// (prefixes are defined in the module docs). [`SimDisk::take_recording`]
/// hands it over at prefix 0, and each step forward applies only the log
/// between the two prefixes. It tracks which pages of the working image
/// may be non-zero, so booting a disk from it and rendering a disk onto it
/// cost what the disks hold, not the whole capacity.
#[derive(Debug)]
pub struct CrashImages {
    geometry: Geometry,
    timing: TimingModel,
    medium: Vec<u8>,
    nvram: Vec<u8>,
    pub(crate) log: Vec<Landed>,
    /// Positions in the log: its sectors plus its NVRAM writes.
    writes: u64,
    prefix: u64,
    /// The first log entry not yet applied whole.
    next: usize,
    /// Bytes of `log[next]` already applied (a torn run).
    torn: usize,
    /// Per page of the working image: may it hold a non-zero byte? It
    /// starts as the recorded disk's allocated pages.
    nonzero: Vec<bool>,
}

impl CrashImages {
    /// A recording that starts from `medium` and `nvram`, with an empty
    /// log; it stays at prefix 0 while the log grows. `nonzero` marks, per
    /// page of `medium`, whether it may hold a non-zero byte: a page it
    /// rules out must be zero.
    pub(crate) fn new(
        geometry: Geometry,
        timing: TimingModel,
        medium: Vec<u8>,
        nonzero: Vec<bool>,
        nvram: Vec<u8>,
    ) -> Self {
        Self {
            geometry,
            timing,
            nonzero,
            medium,
            nvram,
            log: Vec::new(),
            writes: 0,
            prefix: 0,
            next: 0,
            torn: 0,
        }
    }

    /// Logs `data` landing on the medium at `sector`.
    pub(crate) fn landed(&mut self, sector: u64, data: &[u8]) {
        self.writes += (data.len() / SECTOR_SIZE) as u64;
        if let Some(Landed::Sectors {
            sector: first,
            data: run,
        }) = self.log.last_mut()
        {
            if *first + (run.len() / SECTOR_SIZE) as u64 == sector {
                run.extend_from_slice(data);
                return;
            }
        }
        let data = data.to_vec();
        self.log.push(Landed::Sectors { sector, data });
    }

    /// Logs `data` written into NVRAM at `offset`.
    pub(crate) fn nvram_written(&mut self, offset: usize, data: &[u8]) {
        self.writes += 1;
        let data = data.to_vec();
        self.log.push(Landed::Nvram { offset, data });
    }

    /// Positions in the log, one per sector and one per NVRAM write: the
    /// prefixes run from 0 to this, which is the state the recorded run
    /// ended in.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Moves the working image to prefix `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is behind the current prefix or past [`writes`](Self::writes).
    pub fn advance_to(&mut self, n: u64) {
        assert!(
            self.prefix <= n && n <= self.writes,
            "prefix {n} is outside {}..={}",
            self.prefix,
            self.writes
        );
        // Positions still to apply.
        let mut left = n - self.prefix;
        while let Some(entry) = self.log.get(self.next) {
            match entry {
                Landed::Nvram { offset, data } => {
                    if left == 0 {
                        break;
                    }
                    self.nvram[*offset..*offset + data.len()].copy_from_slice(data);
                    left -= 1;
                }
                Landed::Sectors { sector, data } => {
                    let take = (data.len() - self.torn).min(left as usize * SECTOR_SIZE);
                    let at = *sector as usize * SECTOR_SIZE + self.torn;
                    self.medium[at..at + take].copy_from_slice(&data[self.torn..self.torn + take]);
                    if take > 0 {
                        let pages = at / PAGE_BYTES..=(at + take - 1) / PAGE_BYTES;
                        self.nonzero[pages].fill(true);
                    }
                    left -= (take / SECTOR_SIZE) as u64;
                    self.torn += take;
                    if self.torn < data.len() {
                        break;
                    }
                }
            }
            self.next += 1;
            self.torn = 0;
        }
        self.prefix = n;
    }

    /// The medium at the current prefix, as
    /// [`SimDisk::image_bytes`] would return it.
    pub fn medium(&self) -> &[u8] {
        &self.medium
    }

    /// The NVRAM at the current prefix.
    pub fn nvram(&self) -> &[u8] {
        &self.nvram
    }

    /// A powered-up disk holding the current prefix, as a reboot after
    /// the crash would find it: same geometry, timing and NVRAM size,
    /// clock at zero, no fault model, no tracer, not recording.
    pub fn disk(&self) -> SimDisk {
        let mut disk = SimDisk::new(self.geometry, self.timing);
        disk.store.load(&self.medium, |page| self.nonzero[page]);
        disk.nvram = self.nvram.clone();
        disk
    }

    /// Lends `f` the medium of `disk`, as its
    /// [`image_bytes`](SimDisk::image_bytes) would return it, rendered on
    /// the working image by copying only the pages where the two may
    /// differ; the working image is put back afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `disk` has another capacity than the recorded disk.
    pub fn with_medium_of<R>(&mut self, disk: &SimDisk, f: impl FnOnce(&[u8]) -> R) -> R {
        let mut saved = Vec::new();
        let nonzero = &self.nonzero;
        disk.store.overlay(
            &mut self.medium,
            |page| nonzero[page],
            |page, old| saved.push((page, old.to_vec())),
        );
        let result = f(&self.medium);
        for (page, old) in saved {
            let at = page * PAGE_BYTES;
            self.medium[at..at + old.len()].copy_from_slice(&old);
        }
        result
    }
}
