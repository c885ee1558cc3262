//! A Loge-style self-organizing disk controller (English & Stepanov 1992),
//! built for the paper's §5.2 comparison.
//!
//! Loge improves write performance at the *disk controller* level: it keeps
//! an indirection table from logical to physical blocks, reserves 3–5 % of
//! the physical blocks for its own use, and services each write by picking
//! the free reserved block closest to the current head position. The block
//! just superseded becomes free, so the pool stays constant. Every physical
//! block carries an out-of-band header with its logical block number and a
//! timestamp; recovery therefore **reads the whole disk** to rebuild the
//! indirection table — the property that makes LLD's summary-only recovery
//! "at least one order of magnitude faster" (§5.2).
//!
//! Modeling notes (documented substitutions):
//!
//! - Real Loge uses 520-byte sectors to hold the headers out of band. Here
//!   each 4 KB logical block occupies nine sectors: one header sector plus
//!   eight data sectors.
//! - "Closest to the current position of the disk head" is approximated by
//!   the free block nearest the last physical block written (the
//!   controller's own notion of position).

use std::collections::BTreeSet;

use ld_core::wire;
use simdisk::{BlockDev, DiskError, SECTOR_SIZE};

/// Logical/physical block payload size.
pub const BLOCK: usize = 4096;
/// Sectors per physical block: one header sector + eight data sectors.
const SECTORS_PER_BLOCK: u64 = 1 + (BLOCK / SECTOR_SIZE) as u64;

const HEADER_MAGIC: u32 = 0x4C4F_4745; // "LOGE"

/// Errors returned by [`Loge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogeError {
    /// Logical block number out of range.
    BadBlock(u32),
    /// Buffer is not exactly one block.
    BadLength(usize),
    /// The logical block has never been written.
    Unwritten(u32),
    /// Device failure.
    Io(String),
}

impl std::fmt::Display for LogeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogeError::BadBlock(b) => write!(f, "logical block {b} out of range"),
            LogeError::BadLength(l) => write!(f, "buffer of {l} bytes is not one block"),
            LogeError::Unwritten(b) => write!(f, "logical block {b} never written"),
            LogeError::Io(m) => write!(f, "I/O error: {m}"),
        }
    }
}

impl std::error::Error for LogeError {}

fn io_err(e: DiskError) -> LogeError {
    LogeError::Io(e.to_string())
}

/// Result alias.
pub type Result<T> = std::result::Result<T, LogeError>;

/// Fraction of physical blocks reserved for the relocation pool ("Loge
/// typically reserves 3-5% of the physical blocks").
const RESERVE_FRACTION: f64 = 0.04;

/// Blocks to skip past the head when picking a target: by the time the
/// command overhead has elapsed, the platter has rotated under the head,
/// so the *timewise* closest free block is a little ahead, not adjacent.
/// Real Loge computes this from "timely information about the current
/// position of the disk head" (§5.2).
const ROTATIONAL_SKIP_BLOCKS: u32 = 2;

/// How far ahead the forward search may go before a backward candidate
/// (with its seek) becomes preferable.
const SEARCH_WINDOW_BLOCKS: u32 = 256;

/// Physical and exported logical block counts of `disk`: the relocation
/// pool is [`RESERVE_FRACTION`] of the physical blocks, at least one.
fn geometry<D: BlockDev>(disk: &D) -> (u32, u32) {
    let phys_blocks = (disk.total_sectors() / SECTORS_PER_BLOCK).min(u32::MAX as u64) as u32;
    let reserve = (f64::from(phys_blocks) * RESERVE_FRACTION).ceil() as u32;
    (phys_blocks, phys_blocks.saturating_sub(reserve.max(1)))
}

/// Operation statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct LogeStats {
    /// Logical writes serviced.
    pub writes: u64,
    /// Logical reads serviced.
    pub reads: u64,
    /// Simulated microseconds of the last recovery scan.
    pub recovery_us: u64,
    /// Physical blocks scanned by the last recovery.
    pub recovery_blocks_scanned: u64,
}

/// The Loge controller.
pub struct Loge<D: BlockDev> {
    disk: D,
    /// Logical → physical block (+1; 0 = never written).
    table: Vec<u32>,
    /// Free physical blocks (the relocation pool plus superseded blocks).
    free: BTreeSet<u32>,
    /// Exported logical block count.
    logical_blocks: u32,
    /// Timestamp counter stamped into block headers.
    ts: u64,
    /// Controller's notion of head position: last physical block touched.
    head: u32,
    stats: LogeStats,
}

impl<D: BlockDev> Loge<D> {
    /// Formats the device: all physical blocks free, empty table.
    pub fn format(mut disk: D) -> Result<Self> {
        let (phys_blocks, logical_blocks) = geometry(&disk);
        // Invalidate every header so a later recovery cannot resurrect
        // stale blocks: zero the header sector of each physical block.
        let zero = vec![0u8; SECTOR_SIZE];
        for p in 0..phys_blocks {
            disk.write_sectors(u64::from(p) * SECTORS_PER_BLOCK, &zero)
                .map_err(io_err)?;
        }
        Ok(Self {
            disk,
            table: vec![0; logical_blocks as usize],
            free: (0..phys_blocks).collect(),
            logical_blocks,
            ts: 1,
            head: 0,
            stats: LogeStats::default(),
        })
    }

    /// Recovers the indirection table by scanning every block header on
    /// the disk — the whole-disk read that LLD's recovery avoids.
    pub fn recover(mut disk: D) -> Result<Self> {
        let t0 = disk.now_us();
        let (phys_blocks, logical_blocks) = geometry(&disk);

        let mut table = vec![0u32; logical_blocks as usize];
        let mut best_ts = vec![0u64; logical_blocks as usize];
        let mut used: BTreeSet<u32> = BTreeSet::new();
        let mut max_ts = 0u64;
        // One sequential sweep over the whole disk, reading every header
        // sector. (Sequential, so the cost is dominated by the transfer of
        // the full medium — exactly Loge's recovery bill.)
        let mut header = vec![0u8; SECTOR_SIZE];
        for p in 0..phys_blocks {
            disk.read_sectors(u64::from(p) * SECTORS_PER_BLOCK, &mut header)
                .map_err(io_err)?;
            let magic = wire::le_u32(&header, 0);
            if magic != HEADER_MAGIC {
                continue;
            }
            let bid = wire::le_u32(&header, 4);
            let ts = wire::le_u64(&header, 8);
            if (bid as usize) < table.len() && ts > best_ts[bid as usize] {
                if table[bid as usize] != 0 {
                    used.remove(&(table[bid as usize] - 1));
                }
                table[bid as usize] = p + 1;
                best_ts[bid as usize] = ts;
                used.insert(p);
            }
            max_ts = max_ts.max(ts);
        }
        let free = (0..phys_blocks).filter(|p| !used.contains(p)).collect();
        let elapsed = disk.now_us() - t0;
        Ok(Self {
            disk,
            table,
            free,
            logical_blocks,
            ts: max_ts + 1,
            head: 0,
            stats: LogeStats {
                recovery_us: elapsed,
                recovery_blocks_scanned: u64::from(phys_blocks),
                ..LogeStats::default()
            },
        })
    }

    /// Exported capacity in logical blocks.
    pub fn logical_blocks(&self) -> u32 {
        self.logical_blocks
    }

    /// Statistics.
    pub fn stats(&self) -> &LogeStats {
        &self.stats
    }

    /// The underlying device.
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Mutable device access.
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.disk
    }

    /// Consumes self, returning the device (crash simulation).
    pub fn into_disk(self) -> D {
        self.disk
    }

    fn check(&self, bid: u32, len: usize) -> Result<()> {
        if bid >= self.logical_blocks {
            return Err(LogeError::BadBlock(bid));
        }
        if len != BLOCK {
            return Err(LogeError::BadLength(len));
        }
        Ok(())
    }

    /// Picks the free physical block that is cheapest to reach from the
    /// head: preferably a little *ahead* of it (rotationally reachable
    /// without losing a revolution), otherwise the nearest one anywhere.
    fn pick_near_head(&mut self) -> u32 {
        let start = self.head.saturating_add(ROTATIONAL_SKIP_BLOCKS);
        let forward = self.free.range(start..).next().copied();
        let pick = match forward {
            Some(f) if f - start <= SEARCH_WINDOW_BLOCKS => f,
            _ => {
                // Fall back to the globally nearest candidate (a seek is
                // unavoidable either way).
                let up = self.free.range(self.head..).next().copied();
                let down = self.free.range(..self.head).next_back().copied();
                match (down, up) {
                    (None, None) => {
                        unreachable!("pool is never empty: writes free a block first")
                    }
                    (Some(d), None) => d,
                    (None, Some(u)) => u,
                    (Some(d), Some(u)) => {
                        if self.head - d <= u - self.head {
                            d
                        } else {
                            u
                        }
                    }
                }
            }
        };
        self.free.remove(&pick);
        pick
    }

    /// Writes a logical block to the free physical block closest to the
    /// head; the superseded physical block joins the pool.
    pub fn write(&mut self, bid: u32, data: &[u8]) -> Result<()> {
        self.check(bid, data.len())?;
        let target = self.pick_near_head();
        let ts = self.ts;
        self.ts += 1;
        let mut image = Vec::with_capacity(SECTORS_PER_BLOCK as usize * SECTOR_SIZE);
        image.extend_from_slice(&HEADER_MAGIC.to_le_bytes());
        image.extend_from_slice(&bid.to_le_bytes());
        image.extend_from_slice(&ts.to_le_bytes());
        image.resize(SECTOR_SIZE, 0);
        image.extend_from_slice(data);
        self.disk
            .write_sectors(u64::from(target) * SECTORS_PER_BLOCK, &image)
            .map_err(io_err)?;
        let old = self.table[bid as usize];
        self.table[bid as usize] = target + 1;
        if old != 0 {
            self.free.insert(old - 1);
        }
        self.head = target;
        self.stats.writes += 1;
        Ok(())
    }

    /// Reads a logical block.
    pub fn read(&mut self, bid: u32, buf: &mut [u8]) -> Result<()> {
        self.check(bid, buf.len())?;
        let phys = self.table[bid as usize];
        if phys == 0 {
            return Err(LogeError::Unwritten(bid));
        }
        let mut image = vec![0u8; SECTORS_PER_BLOCK as usize * SECTOR_SIZE];
        self.disk
            .read_sectors(u64::from(phys - 1) * SECTORS_PER_BLOCK, &mut image)
            .map_err(io_err)?;
        buf.copy_from_slice(&image[SECTOR_SIZE..]);
        self.head = phys - 1;
        self.stats.reads += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdisk::{MemDisk, SimDisk};

    fn pattern(seed: u8) -> Vec<u8> {
        (0..BLOCK).map(|i| (i as u8) ^ seed).collect()
    }

    #[test]
    fn write_read_roundtrip() {
        let mut loge = Loge::format(MemDisk::with_capacity(8 << 20)).unwrap();
        loge.write(7, &pattern(1)).unwrap();
        loge.write(8, &pattern(2)).unwrap();
        let mut buf = vec![0u8; BLOCK];
        loge.read(7, &mut buf).unwrap();
        assert_eq!(buf, pattern(1));
        loge.read(8, &mut buf).unwrap();
        assert_eq!(buf, pattern(2));
        assert_eq!(loge.read(9, &mut buf), Err(LogeError::Unwritten(9)));
    }

    #[test]
    fn overwrite_relocates_and_pool_is_constant() {
        let mut loge = Loge::format(MemDisk::with_capacity(8 << 20)).unwrap();
        let pool0 = loge.free.len();
        loge.write(3, &pattern(1)).unwrap();
        let p1 = loge.table[3];
        loge.write(3, &pattern(2)).unwrap();
        let p2 = loge.table[3];
        assert_ne!(p1, p2, "overwrite goes to a new physical block");
        assert_eq!(loge.free.len(), pool0 - 1, "one live block, pool constant");
        let mut buf = vec![0u8; BLOCK];
        loge.read(3, &mut buf).unwrap();
        assert_eq!(buf, pattern(2));
    }

    #[test]
    fn recovery_scans_whole_disk_and_restores_table() {
        let mut loge = Loge::format(MemDisk::with_capacity(4 << 20)).unwrap();
        for bid in 0..50u32 {
            loge.write(bid, &pattern(bid as u8)).unwrap();
        }
        // Overwrite some so stale headers exist.
        for bid in 0..25u32 {
            loge.write(bid, &pattern(0x80 | bid as u8)).unwrap();
        }
        let disk = loge.into_disk();
        let (phys, _) = geometry(&disk);
        let mut rec = Loge::recover(disk).unwrap();
        assert_eq!(rec.stats().recovery_blocks_scanned, u64::from(phys));
        let mut buf = vec![0u8; BLOCK];
        for bid in 0..50u32 {
            rec.read(bid, &mut buf).unwrap();
            let want = if bid < 25 {
                pattern(0x80 | bid as u8)
            } else {
                pattern(bid as u8)
            };
            assert_eq!(buf, want, "bid {bid}");
        }
        // Recovered pool allows writes immediately.
        rec.write(60, &pattern(9)).unwrap();
    }

    #[test]
    fn writes_stay_near_the_head() {
        let mut loge = Loge::format(SimDisk::hp_c3010_with_capacity(32 << 20)).unwrap();
        // Scattered logical blocks; physical placement should hug the head.
        let mut max_jump = 0i64;
        let mut last = i64::from(loge.head);
        for i in 0..100u32 {
            loge.write((i * 377) % loge.logical_blocks(), &pattern(i as u8))
                .unwrap();
            let now = i64::from(loge.head);
            max_jump = max_jump.max((now - last).abs());
            last = now;
        }
        assert!(
            max_jump <= 2,
            "fresh pool: consecutive writes should land adjacent (max jump {max_jump})"
        );
    }

    #[test]
    fn random_single_block_writes_beat_update_in_place() {
        // The point of Loge: a stream of individual block writes to random
        // logical addresses costs far less than update-in-place, because
        // the controller writes wherever is closest.
        let mut loge = Loge::format(SimDisk::hp_c3010_with_capacity(64 << 20)).unwrap();
        let n = 200u32;
        let blocks = loge.logical_blocks();
        // Pre-populate so overwrites dominate.
        for bid in 0..n {
            loge.write((bid * 131) % blocks, &pattern(1)).unwrap();
        }
        loge.disk_mut().reset_stats();
        let t0 = loge.disk().now_us();
        for i in 0..n {
            loge.write((i * 7919) % blocks, &pattern(2)).unwrap();
        }
        let loge_us = loge.disk().now_us() - t0;

        // Update-in-place baseline on an identical disk.
        let mut disk = SimDisk::hp_c3010_with_capacity(64 << 20);
        let t0 = disk.now_us();
        for i in 0..n {
            let sector = u64::from((i * 7919) % blocks) * 9;
            disk.write_sectors(sector, &pattern(2)[..]).unwrap();
        }
        let inplace_us = disk.now_us() - t0;
        assert!(
            loge_us * 2 < inplace_us,
            "Loge ({loge_us} us) should be well under half of update-in-place ({inplace_us} us)"
        );
    }

    #[test]
    fn bad_arguments_rejected() {
        let mut loge = Loge::format(MemDisk::with_capacity(4 << 20)).unwrap();
        let blocks = loge.logical_blocks();
        assert_eq!(
            loge.write(blocks, &pattern(0)),
            Err(LogeError::BadBlock(blocks))
        );
        assert_eq!(loge.write(0, &[0u8; 100]), Err(LogeError::BadLength(100)));
    }
}
