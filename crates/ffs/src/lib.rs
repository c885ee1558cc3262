//! An FFS/SunOS-style baseline file system (paper §4.2's third column).
//!
//! The paper compares MINIX and MINIX LLD against the SunOS 4.1.3 file
//! system. This crate implements the properties that explain the SunOS
//! rows of Tables 4 and 5:
//!
//! - **8 KB blocks** (vs MINIX's 4 KB),
//! - **cylinder groups** with FFS placement policy (directories spread
//!   across groups, files in their directory's group, data near its
//!   i-node),
//! - **synchronous metadata writes** on create and delete ("Creation and
//!   deletion are worse since SunOS performs these operations
//!   synchronously", §4.2),
//! - **write clustering** of delayed writes (consecutive dirty blocks are
//!   written in up to 14-block, 112 KB transfers) and **cluster read-ahead**,
//!   which give it good sequential bandwidth on both directions.
//!
//! The file management is `fsutil`'s engine ([`fsutil::fs::Fs`]), the same
//! code MINIX runs; this crate supplies FFS's [`Layout`], so the benchmark
//! harness drives all three file systems identically.

mod inode;

pub use fsutil::fs::{
    FileType, FsError, FsStats as FfsStats, Ino, Inode, Result, Stat, INODE_SIZE, ROOT_INO,
};

use fsutil::dirent::Dirent;
use fsutil::fs::{Addr, Fs, Layout, ReadAhead};
use fsutil::{Bitmap, Evicted};
use simdisk::BlockDev;

/// Block size in bytes (SunOS used 8 KB).
const BLOCK_SIZE: usize = 8192;
/// Blocks per clustered transfer (SunOS coalesces delayed writes: 112 KB).
const CLUSTER_BLOCKS: usize = 14;
/// File blocks read ahead on sequential reads.
const READAHEAD_BLOCKS: u64 = 7;

/// Configuration.
#[derive(Debug, Clone)]
pub struct FfsConfig {
    /// Blocks per cylinder group.
    pub cg_blocks: u32,
    /// I-nodes per cylinder group.
    pub inodes_per_cg: u32,
    /// Buffer-cache bytes (SunOS's cache "grew and shrank dynamically";
    /// a fixed generous cache stands in).
    pub cache_bytes: usize,
    /// Dirty-cache bytes that trigger a clustered write-back.
    pub flush_watermark: usize,
    /// Modeled CPU cost per operation, microseconds (SunOS ran in-kernel,
    /// so this is lower than the user-level MINIX figure).
    pub per_call_us: u64,
}

impl Default for FfsConfig {
    fn default() -> Self {
        Self {
            cg_blocks: 2048,
            inodes_per_cg: 2048,
            cache_bytes: 8 << 20,
            flush_watermark: 1 << 20,
            per_call_us: 40,
        }
    }
}

impl FfsConfig {
    /// Small configuration for unit tests.
    pub fn small_for_tests() -> Self {
        Self {
            cg_blocks: 64,
            inodes_per_cg: 128,
            cache_bytes: 256 << 10,
            flush_watermark: 64 << 10,
            per_call_us: 0,
        }
    }

    fn inode_blocks_per_cg(&self) -> u32 {
        (self.inodes_per_cg as usize).div_ceil(BLOCK_SIZE / INODE_SIZE) as u32
    }

    /// Data blocks available per group.
    pub fn data_blocks_per_cg(&self) -> u32 {
        self.cg_blocks - 1 - self.inode_blocks_per_cg()
    }
}

/// Per-group in-memory state.
#[derive(Debug)]
struct CylGroup {
    /// Block usage within the group (header and i-node blocks pre-marked).
    blocks: Bitmap,
    /// I-node usage within the group.
    inodes: Bitmap,
    dirty: bool,
}

/// FFS's disk management: the device and its cylinder groups.
struct Groups<D> {
    disk: D,
    config: FfsConfig,
    ncg: u32,
    cgs: Vec<CylGroup>,
    /// Round-robin pointer for directory placement.
    next_dir_cg: u32,
}

/// The file system.
pub struct Ffs<D: BlockDev> {
    fs: Fs<Groups<D>>,
}

impl<D: BlockDev> Groups<D> {
    // ----- layout math -----

    fn cg_base(&self, cg: u32) -> u32 {
        1 + cg * self.config.cg_blocks
    }

    fn cg_of_block(&self, addr: u32) -> u32 {
        (addr - 1) / self.config.cg_blocks
    }

    fn cg_of_ino(&self, ino: Ino) -> u32 {
        (ino - 1) / self.config.inodes_per_cg
    }

    // ----- allocation -----

    fn alloc_near(&mut self, cg_pref: u32, near: Option<u32>) -> Result<u32> {
        let reserved = 1 + self.config.inode_blocks_per_cg();
        for probe in 0..self.ncg {
            let cg = (cg_pref + probe) % self.ncg;
            let hint = match near {
                Some(a) if probe == 0 && self.cg_of_block(a) == cg => {
                    ((a - self.cg_base(cg)) + 1) as usize
                }
                _ => reserved as usize,
            };
            if let Some(slot) = self.cgs[cg as usize].blocks.alloc_near(hint) {
                self.cgs[cg as usize].dirty = true;
                return Ok(self.cg_base(cg) + slot as u32);
            }
        }
        Err(FsError::NoSpace)
    }

    fn alloc_inode_in(&mut self, cg_pref: u32) -> Result<Ino> {
        for probe in 0..self.ncg {
            let cg = (cg_pref + probe) % self.ncg;
            if let Some(slot) = self.cgs[cg as usize].inodes.alloc_first() {
                self.cgs[cg as usize].dirty = true;
                return Ok(cg * self.config.inodes_per_cg + slot as u32 + 1);
            }
        }
        Err(FsError::NoInodes)
    }

    /// Serializes and synchronously writes a cylinder-group header.
    fn sync_cg(fs: &mut Fs<Self>, cg: u32) -> Result<()> {
        let mut block = vec![0u8; BLOCK_SIZE];
        let g = &mut fs.layout.cgs[cg as usize];
        let bb = g.blocks.as_bytes();
        let ib = g.inodes.as_bytes();
        block[..bb.len()].copy_from_slice(bb);
        block[BLOCK_SIZE / 2..BLOCK_SIZE / 2 + ib.len()].copy_from_slice(ib);
        g.dirty = false;
        let addr = fs.layout.cg_base(cg);
        fs.save_meta(addr, block)
    }

    fn io(e: simdisk::DiskError) -> FsError {
        FsError::Store(e.to_string())
    }

    fn sectors_of(addr: u32) -> u64 {
        u64::from(addr) * (BLOCK_SIZE / simdisk::SECTOR_SIZE) as u64
    }
}

impl<D: BlockDev> Layout for Groups<D> {
    const SYNC_META: bool = true;
    const MAX_SIZE: u64 = u64::MAX;

    fn block_size(&self) -> usize {
        BLOCK_SIZE
    }

    fn ninodes(&self) -> u32 {
        self.ncg * self.config.inodes_per_cg
    }

    fn encode_inode(inode: &Inode, slot: &mut [u8]) {
        inode::encode(inode, slot);
    }

    fn decode_inode(slot: &[u8]) -> Option<Inode> {
        inode::decode(slot)
    }

    /// I-nodes live in the blocks after their group's header.
    fn inode_slot(fs: &mut Fs<Self>, ino: Ino) -> Result<(Addr, usize, usize)> {
        let l = &fs.layout;
        let local = ((ino - 1) % l.config.inodes_per_cg) as usize;
        let per_block = BLOCK_SIZE / INODE_SIZE;
        let block = l.cg_base(l.cg_of_ino(ino)) + 1 + (local / per_block) as u32;
        Ok((block, (local % per_block) * INODE_SIZE, BLOCK_SIZE))
    }

    fn new_inode(fs: &mut Fs<Self>, parent: Ino, ftype: FileType) -> Result<(Ino, Inode)> {
        let l = &mut fs.layout;
        let cg = match ftype {
            // A file's i-node goes in its directory's group.
            FileType::Regular => l.cg_of_ino(parent),
            // Directories are spread round-robin across groups (the FFS
            // dispersal policy).
            FileType::Dir => {
                let cg = l.next_dir_cg;
                l.next_dir_cg = (cg + 1) % l.ncg;
                cg
            }
        };
        let ino = l.alloc_inode_in(cg)?;
        let cg = l.cg_of_ino(ino);
        Ok((ino, Inode::new(ftype, cg, fs.mtime_now())))
    }

    fn alloc_block(&mut self, inode: &Inode, prev: Option<Addr>) -> Result<Addr> {
        self.alloc_near(inode.group, prev)
    }

    fn free_file(fs: &mut Fs<Self>, ino: Ino, inode: &Inode) -> Result<()> {
        for a in fs.collect_blocks(inode)? {
            let l = &mut fs.layout;
            let cg = l.cg_of_block(a);
            let base = l.cg_base(cg);
            let g = &mut l.cgs[cg as usize];
            g.blocks.clear((a - base) as usize);
            g.dirty = true;
            fs.cache.discard(a);
        }
        fs.clear_inode(ino)?;
        let l = &mut fs.layout;
        let (cg, slot) = (l.cg_of_ino(ino), (ino - 1) % l.config.inodes_per_cg);
        let g = &mut l.cgs[cg as usize];
        g.inodes.clear(slot as usize);
        g.dirty = true;
        Ok(())
    }

    /// Writes the group header of `ino` synchronously.
    fn commit(fs: &mut Fs<Self>, ino: Ino) -> Result<()> {
        let cg = fs.layout.cg_of_ino(ino);
        Self::sync_cg(fs, cg)
    }

    fn sync(fs: &mut Fs<Self>) -> Result<()> {
        fs.flush_dirty()?;
        for cg in 0..fs.layout.ncg {
            if fs.layout.cgs[cg as usize].dirty {
                Self::sync_cg(fs, cg)?;
            }
        }
        Ok(())
    }

    fn read_block(&mut self, addr: Addr, buf: &mut [u8]) -> Result<()> {
        self.disk
            .read_sectors(Self::sectors_of(addr), buf)
            .map_err(Self::io)
    }

    fn write_block(&mut self, addr: Addr, data: &[u8]) -> Result<()> {
        self.disk
            .write_sectors(Self::sectors_of(addr), data)
            .map_err(Self::io)
    }

    /// Writes dirty blocks in address order, coalescing consecutive
    /// addresses into clustered transfers of up to [`CLUSTER_BLOCKS`]
    /// (FFS/SunOS delayed write behaviour).
    fn write_back(&mut self, mut blocks: Vec<Evicted>) -> Result<u64> {
        blocks.sort_by_key(|e| e.addr);
        let mut transfers = 0;
        for run in blocks.chunk_by(|a, b| b.addr == a.addr + 1) {
            for cluster in run.chunks(CLUSTER_BLOCKS) {
                let mut data = Vec::with_capacity(cluster.len() * BLOCK_SIZE);
                for (i, e) in cluster.iter().enumerate() {
                    data.extend_from_slice(&e.data);
                    data.resize((i + 1) * BLOCK_SIZE, 0);
                }
                self.write_block(cluster[0].addr, &data)?;
                transfers += 1;
            }
        }
        Ok(transfers)
    }

    /// Once enough dirty data accumulates, a write flushes it in clustered
    /// transfers (the BSD `update`-style behaviour that gives FFS its
    /// sequential write bandwidth).
    fn dirty_limit(&self) -> usize {
        self.config.flush_watermark
    }

    /// Cluster read-ahead, on sequential access only.
    fn readahead(&self, sequential: bool) -> ReadAhead {
        if sequential {
            ReadAhead::Each(READAHEAD_BLOCKS)
        } else {
            ReadAhead::Off
        }
    }

    fn charge_call(&mut self) {
        let us = self.config.per_call_us;
        if us > 0 {
            self.disk.advance_us(us);
        }
    }

    fn now_us(&self) -> u64 {
        self.disk.now_us()
    }

    fn tracer(&self) -> Option<&ld_trace::Tracer> {
        self.disk.tracer()
    }
}

impl<D: BlockDev> Ffs<D> {
    /// Formats the device.
    pub fn format(disk: D, config: FfsConfig) -> Result<Self> {
        let total_blocks = disk.capacity_bytes() / BLOCK_SIZE as u64;
        let ncg = ((total_blocks.saturating_sub(1)) / u64::from(config.cg_blocks)) as u32;
        if ncg == 0 {
            return Err(FsError::NoSpace);
        }
        let cgs = (0..ncg)
            .map(|_| {
                let mut blocks = Bitmap::new(config.cg_blocks as usize);
                // Header + i-node blocks are never data.
                for b in 0..(1 + config.inode_blocks_per_cg()) {
                    blocks.set(b as usize);
                }
                CylGroup {
                    blocks,
                    inodes: Bitmap::new(config.inodes_per_cg as usize),
                    dirty: true,
                }
            })
            .collect();
        let cache_bytes = config.cache_bytes;
        let layout = Groups {
            disk,
            config,
            ncg,
            cgs,
            next_dir_cg: 0,
        };
        let mut fs = Fs::new(layout, cache_bytes);
        // Root directory: i-node 1 lives in group 0.
        let root = fs.layout.alloc_inode_in(0)?;
        debug_assert_eq!(root, ROOT_INO);
        let mut inode = Inode::new(FileType::Dir, 0, fs.mtime_now());
        fs.dir_init(root, &mut inode, root)?;
        fs.write_inode(root, &inode)?;
        fs.sync()?;
        Ok(Self { fs })
    }

    /// The underlying device.
    pub fn disk(&self) -> &D {
        &self.fs.layout.disk
    }

    /// Mutable access to the underlying device.
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.fs.layout.disk
    }

    /// Operation counters.
    pub fn stats(&self) -> &FfsStats {
        &self.fs.stats
    }

    /// Simulated time.
    pub fn now_us(&self) -> u64 {
        self.fs.layout.disk.now_us()
    }

    /// Resolves a path.
    pub fn lookup(&mut self, p: &str) -> Result<Ino> {
        self.fs.lookup(p)
    }

    /// Creates an empty regular file (synchronous metadata).
    pub fn create(&mut self, p: &str) -> Result<Ino> {
        self.fs.create(p)
    }

    /// Creates a directory (synchronous metadata), in the next group
    /// round-robin.
    pub fn mkdir(&mut self, p: &str) -> Result<Ino> {
        self.fs.mkdir(p)
    }

    /// Writes at `offset` (delayed writes with clustering).
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.fs.write(ino, offset, data)
    }

    /// Reads at `offset`; returns bytes read. Sequential reads trigger
    /// cluster read-ahead.
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.fs.read(ino, offset, buf)
    }

    /// Removes a file (synchronous metadata).
    pub fn unlink(&mut self, p: &str) -> Result<()> {
        self.fs.unlink(p)
    }

    /// Lists a directory.
    pub fn readdir(&mut self, p: &str) -> Result<Vec<Dirent>> {
        self.fs.readdir(p)
    }

    /// Stats an i-node.
    pub fn stat(&mut self, ino: Ino) -> Result<Stat> {
        self.fs.stat(ino)
    }

    /// Flushes all dirty state.
    pub fn sync(&mut self) -> Result<()> {
        self.fs.sync()
    }

    /// Syncs and empties the cache (between benchmark phases).
    pub fn drop_caches(&mut self) -> Result<()> {
        self.fs.drop_caches()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdisk::{MemDisk, SimDisk};

    fn fs() -> Ffs<MemDisk> {
        Ffs::format(
            MemDisk::with_capacity(32 << 20),
            FfsConfig::small_for_tests(),
        )
        .unwrap()
    }

    fn pattern(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(29) ^ seed)
            .collect()
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = fs();
        let ino = fs.create("/f").unwrap();
        let data = pattern(40_000, 1);
        fs.write(ino, 0, &data).unwrap();
        fs.drop_caches().unwrap();
        let mut buf = vec![0u8; 40_000];
        assert_eq!(fs.read(ino, 0, &mut buf).unwrap(), 40_000);
        assert_eq!(buf, data);
        assert_eq!(fs.stat(ino).unwrap().size, 40_000);
    }

    #[test]
    fn directories_and_listing() {
        let mut fs = fs();
        fs.mkdir("/d").unwrap();
        fs.create("/d/x").unwrap();
        fs.create("/d/y").unwrap();
        let names: Vec<_> = fs
            .readdir("/d")
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec![".", "..", "x", "y"]);
        assert_eq!(fs.create("/d/x"), Err(FsError::Exists));
        assert_eq!(fs.lookup("/d/z"), Err(FsError::NotFound));
    }

    #[test]
    fn unlink_frees_blocks() {
        let mut fs = fs();
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 0, &pattern(100_000, 2)).unwrap();
        let free_before: usize = fs.fs.layout.cgs.iter().map(|g| g.blocks.free()).sum();
        fs.unlink("/f").unwrap();
        let free_after: usize = fs.fs.layout.cgs.iter().map(|g| g.blocks.free()).sum();
        assert!(free_after > free_before);
        assert_eq!(fs.lookup("/f"), Err(FsError::NotFound));
    }

    #[test]
    fn metadata_operations_are_synchronous() {
        let mut fs = Ffs::format(
            SimDisk::hp_c3010_with_capacity(32 << 20),
            FfsConfig::small_for_tests(),
        )
        .unwrap();
        let before = fs.stats().sync_meta_writes;
        let writes_before = fs.disk().stats().write_ops;
        fs.create("/f").unwrap();
        assert!(fs.stats().sync_meta_writes > before);
        assert!(
            fs.disk().stats().write_ops > writes_before,
            "create must hit the disk before returning"
        );
    }

    #[test]
    fn large_file_spans_indirect_blocks() {
        let mut fs = fs();
        let ino = fs.create("/big").unwrap();
        // 7 direct 8 KB blocks = 56 KB; write 200 KB.
        let chunk = pattern(8192, 3);
        for i in 0..25u64 {
            fs.write(ino, i * 8192, &chunk).unwrap();
        }
        fs.drop_caches().unwrap();
        let mut buf = vec![0u8; 8192];
        for i in [0u64, 8, 24] {
            assert_eq!(fs.read(ino, i * 8192, &mut buf).unwrap(), 8192);
            assert_eq!(buf, chunk);
        }
    }

    #[test]
    fn sequential_write_is_clustered() {
        let mut fs = Ffs::format(
            SimDisk::hp_c3010_with_capacity(64 << 20),
            FfsConfig::small_for_tests(),
        )
        .unwrap();
        let ino = fs.create("/seq").unwrap();
        let chunk = pattern(8192, 4);
        for i in 0..64u64 {
            fs.write(ino, i * 8192, &chunk).unwrap();
        }
        fs.sync().unwrap();
        let s = fs.stats();
        assert!(
            s.clustered_writes < 64,
            "sequential blocks must coalesce: {} transfers",
            s.clustered_writes
        );
    }

    #[test]
    fn sequential_read_prefetches() {
        let mut fs = fs();
        let ino = fs.create("/seq").unwrap();
        fs.write(ino, 0, &pattern(96 << 10, 5)).unwrap();
        fs.drop_caches().unwrap();
        let mut buf = vec![0u8; 8192];
        fs.read(ino, 0, &mut buf).unwrap();
        assert!(fs.stats().readahead_blocks > 0);
        // The prefetched blocks are cache hits.
        let (h0, _) = fs.fs.cache.stats();
        fs.read(ino, 8192, &mut buf).unwrap();
        let (h1, _) = fs.fs.cache.stats();
        assert!(h1 > h0);
    }

    #[test]
    fn files_land_in_their_directory_group() {
        let mut fs = fs();
        fs.mkdir("/a").unwrap();
        fs.mkdir("/b").unwrap();
        let fa = fs.create("/a/f").unwrap();
        let fb = fs.create("/b/f").unwrap();
        let da = fs.lookup("/a").unwrap();
        let db = fs.lookup("/b").unwrap();
        assert_eq!(fs.fs.layout.cg_of_ino(fa), fs.fs.layout.cg_of_ino(da));
        assert_eq!(fs.fs.layout.cg_of_ino(fb), fs.fs.layout.cg_of_ino(db));
        assert_ne!(
            fs.fs.layout.cg_of_ino(da),
            fs.fs.layout.cg_of_ino(db),
            "directories dispersed"
        );
    }

    #[test]
    fn inode_exhaustion_reports() {
        let mut fs = Ffs::format(
            MemDisk::with_capacity(4 << 20),
            FfsConfig {
                inodes_per_cg: 4,
                cg_blocks: 64,
                ..FfsConfig::small_for_tests()
            },
        )
        .unwrap();
        // One group (4 MB / 8 KB = 512 blocks / 64 = 8 groups actually);
        // just fill until error.
        let mut made = 0;
        loop {
            match fs.create(&format!("/f{made}")) {
                Ok(_) => made += 1,
                Err(FsError::NoInodes) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(made > 0);
        fs.unlink("/f0").unwrap();
        assert!(fs.create("/again").is_ok());
    }

    #[test]
    fn inode_numbers_outside_the_table_are_not_found() {
        let mut fs = fs();
        let last = fs.fs.layout.ncg * fs.fs.layout.config.inodes_per_cg;
        for ino in [0, last + 1, u32::MAX] {
            assert_eq!(fs.stat(ino), Err(FsError::NotFound), "stat {ino}");
            let got = fs.read(ino, 0, &mut [0u8; 8]);
            assert_eq!(got, Err(FsError::NotFound), "read {ino}");
            assert_eq!(
                fs.write(ino, 0, b"x"),
                Err(FsError::NotFound),
                "write {ino}"
            );
        }
    }

    #[test]
    fn write_past_the_largest_file_allocates_nothing() {
        // The pointer range ends after the double-indirect block: a write
        // ending past it fails before it allocates a block.
        let mut fs = fs();
        let ino = fs.create("/f").unwrap();
        let free =
            |fs: &Ffs<MemDisk>| -> usize { fs.fs.layout.cgs.iter().map(|g| g.blocks.free()).sum() };
        let before = free(&fs);
        let max = (7 + 2048 + 2048 * 2048) * BLOCK_SIZE as u64;
        assert_eq!(fs.write(ino, max - 10, &[7; 100]), Err(FsError::NoSpace));
        assert_eq!(free(&fs), before, "no block leaked");
        assert_eq!(fs.stat(ino).unwrap().size, 0);
        // A write that ends exactly at the limit fits.
        fs.write(ino, max - 100, &[7; 100]).unwrap();
        assert_eq!(fs.stat(ino).unwrap().size, max);
    }

    /// Runs `op` on `fs`, which keeps its directory indexes, and on `twin`,
    /// which drops them first, so that its lookups and unlinks scan without
    /// one (a create's miss reads every block and reinstalls it). Both must
    /// answer alike and touch the same blocks: equal cache hits and misses,
    /// and equal simulated time.
    fn in_step(
        fs: &mut Ffs<SimDisk>,
        twin: &mut Ffs<SimDisk>,
        op: impl Fn(&mut Ffs<SimDisk>) -> String,
    ) -> String {
        twin.fs.dirs.clear();
        let got = op(fs);
        assert_eq!(got, op(twin));
        assert_eq!(fs.fs.cache.stats(), twin.fs.cache.stats(), "after {got}");
        assert_eq!(fs.now_us(), twin.now_us(), "after {got}");
        got
    }

    #[test]
    fn dir_index_stops_where_the_scan_would() {
        // 1,900 entries fill 8 blocks, the last through the indirect
        // block, under a 16-block cache. Debug builds also check every
        // indexed answer against the blocks the scan reads.
        let format = || {
            let config = FfsConfig {
                cache_bytes: 16 * BLOCK_SIZE,
                ..FfsConfig::small_for_tests()
            };
            Ffs::format(SimDisk::hp_c3010_with_capacity(32 << 20), config).unwrap()
        };
        let name = |i: usize| format!("/d/f{i:04}");
        let (mut fs, mut twin) = (format(), format());
        let d = fs.mkdir("/d").unwrap();
        twin.mkdir("/d").unwrap();
        for i in 0..1900 {
            fs.create(&name(i)).unwrap();
            twin.create(&name(i)).unwrap();
        }
        let size = |fs: &mut Ffs<SimDisk>, twin: &mut Ffs<SimDisk>| {
            in_step(fs, twin, |f| format!("{:?}", f.stat(d).map(|st| st.size)))
        };
        let full = format!("Ok({})", 8 * BLOCK_SIZE);
        assert_eq!(size(&mut fs, &mut twin), full);

        // Unlink every third entry, look up every fifth and some absent
        // names, refill the holes.
        for i in (0..1900).step_by(3) {
            let got = in_step(&mut fs, &mut twin, |f| format!("{:?}", f.unlink(&name(i))));
            assert_eq!(got, "Ok(())");
        }
        for i in (0..1900).step_by(5) {
            let got = in_step(&mut fs, &mut twin, |f| format!("{:?}", f.lookup(&name(i))));
            assert_eq!(got == "Err(NotFound)", i % 3 == 0, "{i}: {got}");
        }
        for i in 0..20 {
            let absent = format!("/d/g{i}");
            let got = in_step(&mut fs, &mut twin, |f| format!("{:?}", f.lookup(&absent)));
            assert_eq!(got, "Err(NotFound)");
        }
        for i in (0..1900).step_by(3) {
            let got = in_step(&mut fs, &mut twin, |f| format!("{:?}", f.create(&name(i))));
            assert!(got.starts_with("Ok"), "{i}: {got}");
        }
        assert_eq!(size(&mut fs, &mut twin), full, "holes refilled");
    }
}
