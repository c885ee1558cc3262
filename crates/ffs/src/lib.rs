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
//! The API mirrors `minix-fs` so the benchmark harness can drive all three
//! file systems identically.

mod inode;

pub use inode::{FileType, Inode, INODE_SIZE};

use std::collections::HashMap;

use fsutil::dirent::{self, DirBlocks, DirIndex, DirSlot, Dirent, Located, Probe, DIRENT_SIZE};
use fsutil::{path, wire, Bitmap, BufferCache};
use inode::{ptr_path, PtrPath, DIND, IND};
use simdisk::BlockDev;

/// Errors returned by the FFS baseline (deliberately the same shape as
/// `minix-fs`'s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FfsError {
    /// Path component missing.
    NotFound,
    /// Target exists.
    Exists,
    /// Component not a directory.
    NotDir,
    /// Operation needs a regular file.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Out of blocks.
    NoSpace,
    /// Out of i-nodes.
    NoInodes,
    /// Malformed path.
    Path(fsutil::PathError),
    /// Device failure.
    Io(String),
    /// Bad on-disk image.
    BadSuperblock,
}

impl std::fmt::Display for FfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FfsError::NotFound => write!(f, "no such file or directory"),
            FfsError::Exists => write!(f, "file exists"),
            FfsError::NotDir => write!(f, "not a directory"),
            FfsError::IsDir => write!(f, "is a directory"),
            FfsError::NotEmpty => write!(f, "directory not empty"),
            FfsError::NoSpace => write!(f, "no space left"),
            FfsError::NoInodes => write!(f, "no free i-nodes"),
            FfsError::Path(e) => write!(f, "{e}"),
            FfsError::Io(m) => write!(f, "I/O error: {m}"),
            FfsError::BadSuperblock => write!(f, "bad superblock"),
        }
    }
}

impl std::error::Error for FfsError {}

impl From<fsutil::PathError> for FfsError {
    fn from(e: fsutil::PathError) -> Self {
        FfsError::Path(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, FfsError>;

/// An i-node number (1-based).
pub type Ino = u32;

/// The root directory's i-node.
pub const ROOT_INO: Ino = 1;

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

/// Metadata returned by [`Ffs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// File type.
    pub ftype: FileType,
    /// Size in bytes.
    pub size: u64,
    /// Modification time.
    pub mtime: u32,
}

/// Operation counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct FfsStats {
    /// Synchronous metadata writes issued.
    pub sync_meta_writes: u64,
    /// Clustered data transfers issued.
    pub clustered_writes: u64,
    /// Blocks pulled in by read-ahead.
    pub readahead_blocks: u64,
}

/// The file system.
pub struct Ffs<D: BlockDev> {
    disk: D,
    config: FfsConfig,
    ncg: u32,
    cgs: Vec<CylGroup>,
    cache: BufferCache,
    /// Round-robin pointer for directory placement.
    next_dir_cg: u32,
    last_read: Option<(Ino, u64)>,
    /// Directory indexes by i-node, installed by `dir_init`.
    dirs: HashMap<Ino, DirIndex>,
    stats: FfsStats,
}

impl<D: BlockDev> DirBlocks for Ffs<D> {
    type Dir = Inode;
    type Error = FfsError;

    fn dir_block(&mut self, dir: &Inode, idx: u64) -> Result<Option<u32>> {
        let Some(a) = self.block_at(dir, idx)? else {
            return Ok(None);
        };
        self.touch(a)?;
        Ok(Some(a))
    }

    fn dir_bytes(&self, addr: u32) -> Result<&[u8]> {
        self.cached(addr)
    }
}

impl<D: BlockDev> Ffs<D> {
    // ----- formatting -----

    /// Formats the device.
    pub fn format(disk: D, config: FfsConfig) -> Result<Self> {
        let bs = BLOCK_SIZE as u64;
        let total_blocks = disk.capacity_bytes() / bs;
        let ncg = ((total_blocks.saturating_sub(1)) / u64::from(config.cg_blocks)) as u32;
        if ncg == 0 {
            return Err(FfsError::NoSpace);
        }
        let mut cgs = Vec::with_capacity(ncg as usize);
        for _ in 0..ncg {
            let mut blocks = Bitmap::new(config.cg_blocks as usize);
            // Header + i-node blocks are never data.
            for b in 0..(1 + config.inode_blocks_per_cg()) {
                blocks.set(b as usize);
            }
            cgs.push(CylGroup {
                blocks,
                inodes: Bitmap::new(config.inodes_per_cg as usize),
                dirty: true,
            });
        }
        let mut fs = Self {
            cache: BufferCache::new(config.cache_bytes),
            disk,
            config,
            ncg,
            cgs,
            next_dir_cg: 0,
            last_read: None,
            dirs: HashMap::new(),
            stats: FfsStats::default(),
        };
        // Root directory: i-node 1 lives in group 0.
        let root = fs.alloc_inode_in(0, FileType::Dir)?;
        debug_assert_eq!(root, ROOT_INO);
        let mut inode = Inode::new(FileType::Dir, 0, fs.mtime());
        fs.dir_init(root, &mut inode, root)?;
        fs.write_inode(root, &inode)?;
        fs.sync()?;
        Ok(fs)
    }

    // ----- accessors -----

    /// The underlying device.
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Mutable access to the underlying device.
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.disk
    }

    /// Operation counters.
    pub fn stats(&self) -> &FfsStats {
        &self.stats
    }

    /// Simulated time.
    pub fn now_us(&self) -> u64 {
        self.disk.now_us()
    }

    /// Span start: the current simulated time, only if the device has a
    /// tracer. Every public operation records an [`ld_trace::Event::FsOp`]
    /// latency span there; tracing never advances the simulated clock.
    #[inline]
    fn trace_start(&self) -> Option<u64> {
        self.disk.tracer().map(|_| self.disk.now_us())
    }

    /// Span end: records the completed operation, no-op untraced.
    #[inline]
    fn trace_op(&self, op: ld_trace::FsOpKind, start: Option<u64>) {
        if let (Some(t), Some(start_us)) = (self.disk.tracer(), start) {
            let end = self.disk.now_us();
            t.record(
                end,
                ld_trace::Event::FsOp {
                    op,
                    start_us,
                    us: end - start_us,
                },
            );
        }
    }

    fn mtime(&self) -> u32 {
        (self.disk.now_us() / 1_000_000) as u32
    }

    fn charge_call(&mut self) {
        let us = self.config.per_call_us;
        if us > 0 {
            self.disk.advance_us(us);
        }
    }

    // ----- layout math -----

    fn cg_base(&self, cg: u32) -> u32 {
        1 + cg * self.config.cg_blocks
    }

    fn cg_of_block(&self, addr: u32) -> u32 {
        (addr - 1) / self.config.cg_blocks
    }

    fn cg_header_addr(&self, cg: u32) -> u32 {
        self.cg_base(cg)
    }

    fn inode_addr(&self, ino: Ino) -> (u32, usize) {
        let idx = (ino - 1) as usize;
        let cg = idx / self.config.inodes_per_cg as usize;
        let local = idx % self.config.inodes_per_cg as usize;
        let per_block = BLOCK_SIZE / INODE_SIZE;
        let block = self.cg_base(cg as u32) + 1 + (local / per_block) as u32;
        (block, (local % per_block) * INODE_SIZE)
    }

    // ----- raw block I/O with clustering -----

    fn sectors_of(&self, addr: u32) -> u64 {
        u64::from(addr) * (BLOCK_SIZE / simdisk::SECTOR_SIZE) as u64
    }

    fn disk_read(&mut self, addr: u32, buf: &mut [u8]) -> Result<()> {
        let s = self.sectors_of(addr);
        self.disk
            .read_sectors(s, buf)
            .map_err(|e| FfsError::Io(e.to_string()))
    }

    fn disk_write(&mut self, addr: u32, data: &[u8]) -> Result<()> {
        let s = self.sectors_of(addr);
        self.disk
            .write_sectors(s, data)
            .map_err(|e| FfsError::Io(e.to_string()))
    }

    /// Writes a set of dirty blocks, coalescing consecutive addresses into
    /// clustered transfers of up to [`CLUSTER_BLOCKS`] (FFS/SunOS delayed
    /// write behaviour).
    fn flush_blocks(&mut self, mut blocks: Vec<fsutil::Evicted>) -> Result<()> {
        blocks.sort_by_key(|e| e.addr);
        let mut i = 0;
        while i < blocks.len() {
            let start = blocks[i].addr;
            let mut run = vec![0u8; 0];
            run.extend_from_slice(&blocks[i].data);
            run.resize(BLOCK_SIZE, 0);
            let mut n = 1;
            while i + n < blocks.len()
                && blocks[i + n].addr == start + n as u32
                && n < CLUSTER_BLOCKS
            {
                let mut img = blocks[i + n].data.clone();
                img.resize(BLOCK_SIZE, 0);
                run.extend_from_slice(&img);
                n += 1;
            }
            self.disk_write(start, &run)?;
            self.stats.clustered_writes += 1;
            i += n;
        }
        Ok(())
    }

    // ----- cache plumbing -----

    /// Reads a block through the cache: a hit, or a read from the disk
    /// and an insert.
    fn touch(&mut self, addr: u32) -> Result<()> {
        if self.cache.get(addr).is_none() {
            let mut buf = vec![0u8; BLOCK_SIZE];
            self.disk_read(addr, &mut buf)?;
            let evicted = self.cache.insert_clean(addr, buf);
            self.flush_blocks(evicted)?;
        }
        Ok(())
    }

    /// [`touch`](Self::touch), returning the cached bytes.
    fn fetch(&mut self, addr: u32) -> Result<&[u8]> {
        self.touch(addr)?;
        self.cached(addr)
    }

    /// A resident block's bytes, without touching recency or the counters.
    fn cached(&self, addr: u32) -> Result<&[u8]> {
        self.cache
            .peek(addr)
            .ok_or_else(|| FfsError::Io(format!("block {addr} left the cache")))
    }

    fn load(&mut self, addr: u32) -> Result<Vec<u8>> {
        self.fetch(addr).map(<[u8]>::to_vec)
    }

    fn save(&mut self, addr: u32, data: Vec<u8>) -> Result<()> {
        let evicted = self.cache.insert_dirty(addr, data);
        self.flush_blocks(evicted)?;
        Ok(())
    }

    /// Writes a block through the cache *and* synchronously to disk — the
    /// metadata path ("SunOS performs these operations synchronously").
    /// The cache entry ends up clean: it matches the medium.
    fn save_sync(&mut self, addr: u32, data: Vec<u8>) -> Result<()> {
        self.disk_write(addr, &data)?;
        let evicted = self.cache.insert_clean(addr, data);
        self.flush_blocks(evicted)?;
        self.stats.sync_meta_writes += 1;
        Ok(())
    }

    /// Serializes and synchronously writes a cylinder-group header.
    fn sync_cg(&mut self, cg: u32) -> Result<()> {
        let mut block = vec![0u8; BLOCK_SIZE];
        let g = &self.cgs[cg as usize];
        let bb = g.blocks.as_bytes();
        let ib = g.inodes.as_bytes();
        block[..bb.len()].copy_from_slice(bb);
        block[BLOCK_SIZE / 2..BLOCK_SIZE / 2 + ib.len()].copy_from_slice(ib);
        let addr = self.cg_header_addr(cg);
        self.cgs[cg as usize].dirty = false;
        self.save_sync(addr, block)
    }

    // ----- allocation -----

    fn alloc_block(&mut self, cg_pref: u32, near: Option<u32>) -> Result<u32> {
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
        Err(FfsError::NoSpace)
    }

    fn free_block(&mut self, addr: u32) {
        let cg = self.cg_of_block(addr);
        let slot = (addr - self.cg_base(cg)) as usize;
        self.cgs[cg as usize].blocks.clear(slot);
        self.cgs[cg as usize].dirty = true;
        self.cache.discard(addr);
    }

    fn alloc_inode_in(&mut self, cg_pref: u32, _ftype: FileType) -> Result<Ino> {
        for probe in 0..self.ncg {
            let cg = (cg_pref + probe) % self.ncg;
            if let Some(slot) = self.cgs[cg as usize].inodes.alloc_first() {
                self.cgs[cg as usize].dirty = true;
                return Ok(cg * self.config.inodes_per_cg + slot as u32 + 1);
            }
        }
        Err(FfsError::NoInodes)
    }

    fn free_inode(&mut self, ino: Ino) {
        let idx = (ino - 1) as usize;
        let cg = idx / self.config.inodes_per_cg as usize;
        let slot = idx % self.config.inodes_per_cg as usize;
        self.cgs[cg].inodes.clear(slot);
        self.cgs[cg].dirty = true;
    }

    fn cg_of_ino(&self, ino: Ino) -> u32 {
        (ino - 1) / self.config.inodes_per_cg
    }

    // ----- i-nodes -----

    fn read_inode(&mut self, ino: Ino) -> Result<Inode> {
        let (addr, off) = self.inode_addr(ino);
        Inode::decode(&self.fetch(addr)?[off..off + INODE_SIZE]).ok_or(FfsError::NotFound)
    }

    fn write_inode(&mut self, ino: Ino, inode: &Inode) -> Result<()> {
        let (addr, off) = self.inode_addr(ino);
        let mut block = self.load(addr)?;
        inode.encode(&mut block[off..off + INODE_SIZE]);
        self.save(addr, block)
    }

    /// Like [`write_inode`](Self::write_inode) but synchronous (metadata
    /// update ordering).
    fn write_inode_sync(&mut self, ino: Ino, inode: &Inode) -> Result<()> {
        let (addr, off) = self.inode_addr(ino);
        let mut block = self.load(addr)?;
        inode.encode(&mut block[off..off + INODE_SIZE]);
        self.save_sync(addr, block)
    }

    // ----- block mapping -----

    fn ppb(&self) -> usize {
        BLOCK_SIZE / 4
    }

    fn block_at(&mut self, inode: &Inode, idx: u64) -> Result<Option<u32>> {
        match ptr_path(idx, self.ppb()).ok_or(FfsError::NoSpace)? {
            PtrPath::Direct(i) => Ok(nz(inode.ptrs[i])),
            PtrPath::Indirect(i) => {
                let Some(ind) = nz(inode.ptrs[IND]) else {
                    return Ok(None);
                };
                Ok(nz(get_u32(self.fetch(ind)?, i)))
            }
            PtrPath::Double(i, j) => {
                let Some(dind) = nz(inode.ptrs[DIND]) else {
                    return Ok(None);
                };
                let Some(ind) = nz(get_u32(self.fetch(dind)?, i)) else {
                    return Ok(None);
                };
                Ok(nz(get_u32(self.fetch(ind)?, j)))
            }
        }
    }

    fn block_alloc(&mut self, inode: &mut Inode, idx: u64) -> Result<u32> {
        let cg = inode.cg;
        let near = if idx > 0 {
            self.block_at(inode, idx - 1)?
        } else {
            None
        };
        match ptr_path(idx, self.ppb()).ok_or(FfsError::NoSpace)? {
            PtrPath::Direct(i) => {
                if let Some(a) = nz(inode.ptrs[i]) {
                    return Ok(a);
                }
                let a = self.alloc_block(cg, near)?;
                inode.ptrs[i] = a;
                Ok(a)
            }
            PtrPath::Indirect(i) => {
                let ind = match nz(inode.ptrs[IND]) {
                    Some(a) => a,
                    None => {
                        let a = self.alloc_block(cg, near)?;
                        self.save(a, vec![0u8; BLOCK_SIZE])?;
                        inode.ptrs[IND] = a;
                        a
                    }
                };
                self.alloc_in_table(ind, i, cg, near)
            }
            PtrPath::Double(i, j) => {
                let dind = match nz(inode.ptrs[DIND]) {
                    Some(a) => a,
                    None => {
                        let a = self.alloc_block(cg, near)?;
                        self.save(a, vec![0u8; BLOCK_SIZE])?;
                        inode.ptrs[DIND] = a;
                        a
                    }
                };
                let ind = match nz(get_u32(self.fetch(dind)?, i)) {
                    Some(a) => a,
                    None => {
                        let a = self.alloc_block(cg, near)?;
                        self.save(a, vec![0u8; BLOCK_SIZE])?;
                        let mut b = self.load(dind)?;
                        set_u32(&mut b, i, a);
                        self.save(dind, b)?;
                        a
                    }
                };
                self.alloc_in_table(ind, j, cg, near)
            }
        }
    }

    fn alloc_in_table(&mut self, table: u32, i: usize, cg: u32, near: Option<u32>) -> Result<u32> {
        if let Some(a) = nz(get_u32(self.fetch(table)?, i)) {
            return Ok(a);
        }
        let a = self.alloc_block(cg, near)?;
        let mut b = self.load(table)?;
        set_u32(&mut b, i, a);
        self.save(table, b)?;
        Ok(a)
    }

    fn collect_blocks(&mut self, inode: &Inode) -> Result<Vec<u32>> {
        let bs = BLOCK_SIZE as u64;
        let mut out = Vec::new();
        let nblocks = inode.size.div_ceil(bs);
        for idx in 0..nblocks {
            if let Some(a) = self.block_at(inode, idx)? {
                out.push(a);
            }
        }
        // Indirect metadata blocks.
        if let Some(ind) = nz(inode.ptrs[IND]) {
            out.push(ind);
        }
        if let Some(dind) = nz(inode.ptrs[DIND]) {
            let b = self.load(dind)?;
            for i in 0..self.ppb() {
                if let Some(a) = nz(get_u32(&b, i)) {
                    out.push(a);
                }
            }
            out.push(dind);
        }
        Ok(out)
    }

    // ----- directories -----
    //
    // The scan and its index are MINIX's (`dirent::locate`): an indexed
    // directory reads each block the scan reads but compares no bytes.
    // Each operation takes the index out of `dirs` and puts it back only on
    // success; after an error the directory is scanned until a scan that
    // reads every block rebuilds it.

    fn dir_init(&mut self, ino: Ino, inode: &mut Inode, parent: Ino) -> Result<()> {
        let a = self.block_alloc(inode, 0)?;
        let mut block = vec![0u8; BLOCK_SIZE];
        dirent::encode(ino, ".", &mut block[0..DIRENT_SIZE]);
        dirent::encode(parent, "..", &mut block[DIRENT_SIZE..2 * DIRENT_SIZE]);
        let mut index = DirIndex::default();
        index.add_block(0, &block);
        self.save_sync(a, block)?;
        self.dirs.insert(ino, index);
        inode.size = BLOCK_SIZE as u64;
        Ok(())
    }

    /// Runs the scan of directory `dir_ino` for `probe`, with its index
    /// taken out of `dirs`.
    fn dir_locate(&mut self, dir_ino: Ino, dir: &Inode, probe: Probe<'_>) -> Result<Located> {
        let nblocks = dir.size.div_ceil(BLOCK_SIZE as u64);
        let index = self.dirs.remove(&dir_ino);
        dirent::locate(self, dir, nblocks, probe, index)
    }

    /// Puts a directory's index back once its operation has succeeded.
    fn dir_keep(&mut self, dir_ino: Ino, index: Option<DirIndex>) {
        if let Some(index) = index {
            self.dirs.insert(dir_ino, index);
        }
    }

    fn dir_find(&mut self, dir_ino: Ino, dir: &Inode, name: &str) -> Result<Option<Ino>> {
        let Located { stop, index } = self.dir_locate(dir_ino, dir, Probe::Name(name))?;
        self.dir_keep(dir_ino, index);
        Ok(stop.map(|(_, at)| at.ino))
    }

    /// Adds an entry with a synchronous directory-block write.
    fn dir_add(&mut self, dir_ino: Ino, dir: &mut Inode, name: &str, ino: Ino) -> Result<()> {
        let Located { stop, mut index } = self.dir_locate(dir_ino, dir, Probe::Free)?;
        let (a, at, mut block) = match stop {
            Some((a, at)) => (a, at, self.cached(a)?.to_vec()),
            None => {
                let idx = dir.size.div_ceil(BLOCK_SIZE as u64);
                let a = self.block_alloc(dir, idx)?;
                let block = vec![0u8; BLOCK_SIZE];
                if let Some(ix) = &mut index {
                    ix.add_block(idx, &block);
                }
                dir.size += BLOCK_SIZE as u64;
                (
                    a,
                    DirSlot {
                        block: idx,
                        slot: 0,
                        ino: 0,
                    },
                    block,
                )
            }
        };
        dirent::encode(
            ino,
            name,
            &mut block[at.slot * DIRENT_SIZE..(at.slot + 1) * DIRENT_SIZE],
        );
        if let Some(ix) = &mut index {
            ix.fill(at, name, ino);
        }
        self.save_sync(a, block)?;
        dir.mtime = self.mtime();
        self.write_inode_sync(dir_ino, dir)?;
        self.dir_keep(dir_ino, index);
        Ok(())
    }

    fn dir_remove(&mut self, dir_ino: Ino, dir: &mut Inode, name: &str) -> Result<Ino> {
        let Located { stop, mut index } = self.dir_locate(dir_ino, dir, Probe::Name(name))?;
        let Some((a, at)) = stop else {
            self.dir_keep(dir_ino, index);
            return Err(FfsError::NotFound);
        };
        let mut block = self.cached(a)?.to_vec();
        dirent::clear(&mut block[at.slot * DIRENT_SIZE..(at.slot + 1) * DIRENT_SIZE]);
        if let Some(ix) = &mut index {
            ix.clear(at, name);
        }
        self.save_sync(a, block)?;
        dir.mtime = self.mtime();
        self.write_inode_sync(dir_ino, dir)?;
        self.dir_keep(dir_ino, index);
        Ok(at.ino)
    }

    /// Resolves a path.
    pub fn lookup(&mut self, p: &str) -> Result<Ino> {
        let t0 = self.trace_start();
        let r = self.lookup_inner(p);
        self.trace_op(ld_trace::FsOpKind::Lookup, t0);
        r
    }

    fn lookup_inner(&mut self, p: &str) -> Result<Ino> {
        let comps = path::split(p)?;
        let mut cur = ROOT_INO;
        for c in comps {
            let inode = self.read_inode(cur)?;
            if inode.ftype != FileType::Dir {
                return Err(FfsError::NotDir);
            }
            cur = self.dir_find(cur, &inode, c)?.ok_or(FfsError::NotFound)?;
        }
        Ok(cur)
    }

    fn lookup_parent(&mut self, p: &str) -> Result<(Ino, String)> {
        let (parent, name) = path::split_parent(p)?;
        let mut cur = ROOT_INO;
        for c in parent {
            let inode = self.read_inode(cur)?;
            if inode.ftype != FileType::Dir {
                return Err(FfsError::NotDir);
            }
            cur = self.dir_find(cur, &inode, c)?.ok_or(FfsError::NotFound)?;
        }
        Ok((cur, name.to_string()))
    }

    // ----- public operations -----

    /// Creates an empty regular file (synchronous metadata).
    pub fn create(&mut self, p: &str) -> Result<Ino> {
        let t0 = self.trace_start();
        let r = self.create_inner(p);
        self.trace_op(ld_trace::FsOpKind::Create, t0);
        r
    }

    fn create_inner(&mut self, p: &str) -> Result<Ino> {
        self.charge_call();
        let (parent, name) = self.lookup_parent(p)?;
        let mut dir = self.read_inode(parent)?;
        if dir.ftype != FileType::Dir {
            return Err(FfsError::NotDir);
        }
        if self.dir_find(parent, &dir, &name)?.is_some() {
            return Err(FfsError::Exists);
        }
        // FFS policy: a file's i-node goes in its directory's group.
        let cg = self.cg_of_ino(parent);
        let ino = self.alloc_inode_in(cg, FileType::Regular)?;
        let inode = Inode::new(FileType::Regular, self.cg_of_ino(ino), self.mtime());
        self.write_inode_sync(ino, &inode)?;
        self.dir_add(parent, &mut dir, &name, ino)?;
        self.sync_cg(self.cg_of_ino(ino))?;
        Ok(ino)
    }

    /// Creates a directory (synchronous metadata). Directories are spread
    /// round-robin across groups (the FFS dispersal policy).
    pub fn mkdir(&mut self, p: &str) -> Result<Ino> {
        let t0 = self.trace_start();
        let r = self.mkdir_inner(p);
        self.trace_op(ld_trace::FsOpKind::Mkdir, t0);
        r
    }

    fn mkdir_inner(&mut self, p: &str) -> Result<Ino> {
        self.charge_call();
        let (parent, name) = self.lookup_parent(p)?;
        let mut dir = self.read_inode(parent)?;
        if dir.ftype != FileType::Dir {
            return Err(FfsError::NotDir);
        }
        if self.dir_find(parent, &dir, &name)?.is_some() {
            return Err(FfsError::Exists);
        }
        let cg = self.next_dir_cg;
        self.next_dir_cg = (self.next_dir_cg + 1) % self.ncg;
        let ino = self.alloc_inode_in(cg, FileType::Dir)?;
        let mut inode = Inode::new(FileType::Dir, self.cg_of_ino(ino), self.mtime());
        self.dir_init(ino, &mut inode, parent)?;
        self.write_inode_sync(ino, &inode)?;
        self.dir_add(parent, &mut dir, &name, ino)?;
        self.sync_cg(self.cg_of_ino(ino))?;
        Ok(ino)
    }

    /// Writes at `offset` (delayed writes with clustering).
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        let t0 = self.trace_start();
        let r = self.write_inner(ino, offset, data);
        self.trace_op(ld_trace::FsOpKind::Write, t0);
        r
    }

    fn write_inner(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.charge_call();
        let mut inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FfsError::IsDir);
        }
        let bs = BLOCK_SIZE as u64;
        let mut pos = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let idx = pos / bs;
            let inner = (pos % bs) as usize;
            let n = rest.len().min(bs as usize - inner);
            let a = self.block_alloc(&mut inode, idx)?;
            if inner == 0 && n == bs as usize {
                self.save(a, rest[..n].to_vec())?;
            } else {
                let mut block = self.load(a)?;
                block[inner..inner + n].copy_from_slice(&rest[..n]);
                self.save(a, block)?;
            }
            pos += n as u64;
            rest = &rest[n..];
        }
        inode.size = inode.size.max(offset + data.len() as u64);
        inode.mtime = self.mtime();
        self.write_inode(ino, &inode)?;
        // Delayed-write watermark: once enough dirty data accumulates,
        // write it back in clustered transfers (the BSD `update`-style
        // behaviour that gives FFS its sequential write bandwidth).
        if self.cache.dirty_bytes() >= self.config.flush_watermark {
            let dirty = self.cache.take_dirty();
            self.flush_blocks(dirty)?;
        }
        Ok(())
    }

    /// Reads at `offset`; returns bytes read. Sequential reads trigger
    /// cluster read-ahead.
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let t0 = self.trace_start();
        let r = self.read_inner(ino, offset, buf);
        self.trace_op(ld_trace::FsOpKind::Read, t0);
        r
    }

    fn read_inner(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.charge_call();
        let inode = self.read_inode(ino)?;
        let bs = BLOCK_SIZE as u64;
        if offset >= inode.size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(inode.size - offset) as usize;
        let mut done = 0;
        let mut pos = offset;
        let mut last_idx = offset / bs;
        while done < want {
            let idx = pos / bs;
            let inner = (pos % bs) as usize;
            let n = (want - done).min(bs as usize - inner);
            match self.block_at(&inode, idx)? {
                Some(a) => {
                    let block = self.fetch(a)?;
                    buf[done..done + n].copy_from_slice(&block[inner..inner + n]);
                }
                None => buf[done..done + n].fill(0),
            }
            last_idx = idx;
            pos += n as u64;
            done += n;
        }
        // Cluster read-ahead on sequential access.
        let sequential = self
            .last_read
            .is_some_and(|(i, b)| i == ino && offset / bs == b + 1)
            || offset == 0;
        if sequential {
            let nblocks = inode.size.div_ceil(bs);
            for k in last_idx + 1..=(last_idx + READAHEAD_BLOCKS).min(nblocks.saturating_sub(1)) {
                if let Some(a) = self.block_at(&inode, k)? {
                    if !self.cache.contains(a) {
                        self.fetch(a)?;
                        self.stats.readahead_blocks += 1;
                    }
                }
            }
        }
        self.last_read = Some((ino, last_idx));
        Ok(done)
    }

    /// Removes a file (synchronous metadata).
    pub fn unlink(&mut self, p: &str) -> Result<()> {
        let t0 = self.trace_start();
        let r = self.unlink_inner(p);
        self.trace_op(ld_trace::FsOpKind::Unlink, t0);
        r
    }

    fn unlink_inner(&mut self, p: &str) -> Result<()> {
        self.charge_call();
        let (parent, name) = self.lookup_parent(p)?;
        let mut dir = self.read_inode(parent)?;
        let ino = self
            .dir_find(parent, &dir, &name)?
            .ok_or(FfsError::NotFound)?;
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FfsError::IsDir);
        }
        self.dir_remove(parent, &mut dir, &name)?;
        for a in self.collect_blocks(&inode)? {
            self.free_block(a);
        }
        // Zero the i-node slot synchronously.
        let (addr, off) = self.inode_addr(ino);
        let mut block = self.load(addr)?;
        block[off..off + INODE_SIZE].fill(0);
        self.save_sync(addr, block)?;
        self.free_inode(ino);
        self.sync_cg(self.cg_of_ino(ino))?;
        Ok(())
    }

    /// Lists a directory.
    pub fn readdir(&mut self, p: &str) -> Result<Vec<Dirent>> {
        self.charge_call();
        let ino = self.lookup(p)?;
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Dir {
            return Err(FfsError::NotDir);
        }
        let bs = BLOCK_SIZE as u64;
        let mut out = Vec::new();
        for idx in 0..inode.size.div_ceil(bs) {
            let Some(a) = self.block_at(&inode, idx)? else {
                continue;
            };
            out.extend(dirent::iter_block(self.fetch(a)?).map(|(_, d)| d));
        }
        Ok(out)
    }

    /// Stats an i-node.
    pub fn stat(&mut self, ino: Ino) -> Result<Stat> {
        let inode = self.read_inode(ino)?;
        Ok(Stat {
            ftype: inode.ftype,
            size: inode.size,
            mtime: inode.mtime,
        })
    }

    /// Flushes all dirty state.
    pub fn sync(&mut self) -> Result<()> {
        let t0 = self.trace_start();
        let r = self.sync_inner();
        self.trace_op(ld_trace::FsOpKind::Sync, t0);
        r
    }

    fn sync_inner(&mut self) -> Result<()> {
        self.charge_call();
        let dirty = self.cache.take_dirty();
        self.flush_blocks(dirty)?;
        for cg in 0..self.ncg {
            if self.cgs[cg as usize].dirty {
                self.sync_cg(cg)?;
            }
        }
        Ok(())
    }

    /// Syncs and empties the cache (between benchmark phases).
    pub fn drop_caches(&mut self) -> Result<()> {
        self.sync()?;
        let leftover = self.cache.drop_all();
        debug_assert!(leftover.is_empty());
        self.last_read = None;
        Ok(())
    }
}

fn nz(a: u32) -> Option<u32> {
    (a != 0).then_some(a)
}

fn get_u32(b: &[u8], i: usize) -> u32 {
    wire::le_u32(b, i * 4)
}

fn set_u32(b: &mut [u8], i: usize, v: u32) {
    b[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
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
        assert_eq!(fs.create("/d/x"), Err(FfsError::Exists));
        assert_eq!(fs.lookup("/d/z"), Err(FfsError::NotFound));
    }

    #[test]
    fn unlink_frees_blocks() {
        let mut fs = fs();
        let ino = fs.create("/f").unwrap();
        fs.write(ino, 0, &pattern(100_000, 2)).unwrap();
        let free_before: usize = fs.cgs.iter().map(|g| g.blocks.free()).sum();
        fs.unlink("/f").unwrap();
        let free_after: usize = fs.cgs.iter().map(|g| g.blocks.free()).sum();
        assert!(free_after > free_before);
        assert_eq!(fs.lookup("/f"), Err(FfsError::NotFound));
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
        let (h0, _) = fs.cache.stats();
        fs.read(ino, 8192, &mut buf).unwrap();
        let (h1, _) = fs.cache.stats();
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
        assert_eq!(fs.cg_of_ino(fa), fs.cg_of_ino(da));
        assert_eq!(fs.cg_of_ino(fb), fs.cg_of_ino(db));
        assert_ne!(fs.cg_of_ino(da), fs.cg_of_ino(db), "directories dispersed");
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
                Err(FfsError::NoInodes) => break,
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        assert!(made > 0);
        fs.unlink("/f0").unwrap();
        assert!(fs.create("/again").is_ok());
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
        twin.dirs.clear();
        let got = op(fs);
        assert_eq!(got, op(twin));
        assert_eq!(fs.cache.stats(), twin.cache.stats(), "after {got}");
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
