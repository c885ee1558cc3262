//! A MINIX-style file system over pluggable disk management (paper §4).
//!
//! The same file-system code — i-nodes, directories, a static write-back
//! buffer cache — runs over two [`BlockStore`] backends:
//!
//! - [`RawStore`]: classic update-in-place storage with a free-block
//!   bitmap and allocate-near-previous policy ⇒ **plain MINIX**;
//! - [`LdStore`]: the Logical Disk ⇒ **MINIX LLD**, a log-structured file
//!   system obtained without touching the file-system logic.
//!
//! That the backend swap is confined to the store trait *is* the paper's
//! headline claim ("In total less than 100 of the 7000 lines of general
//! file system code were modified", §4.1). Each file gets its own LD list
//! (§4.1's final configuration); the i-node layout, packed or 64-byte
//! blocks ([`InodeMode`]), is configuration, and read-ahead runs only over
//! stores that benefit from it.

mod config;
mod error;
mod inode;
mod ld_store;
mod raw_store;
mod store;
mod superblock;

pub use config::{FsConfig, FsCpuModel, InodeMode};
pub use error::{FsError, Result};
pub use inode::{FileType, Inode, INODE_SIZE};
pub use ld_store::LdStore;
pub use raw_store::RawStore;
pub use store::{Addr, AllocHint, BlockStore};
pub use superblock::SuperBlock;

use std::collections::HashMap;

use fsutil::dirent::{self, DirBlocks, DirIndex, DirSlot, Dirent, Located, Probe, DIRENT_SIZE};
use fsutil::{path, wire, Bitmap, BufferCache, Evicted};
use inode::{zone_path, ZonePath, DIND, IND};

/// An i-node number (1-based; 1 is the root directory).
pub type Ino = u32;

/// The root directory's i-node number.
pub const ROOT_INO: Ino = 1;

/// Blocks read ahead on sequential access, over stores that support it.
const READAHEAD_BLOCKS: u64 = 2;

/// Metadata returned by [`MinixFs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// File type.
    pub ftype: FileType,
    /// Size in bytes.
    pub size: u32,
    /// Modification time (simulated seconds).
    pub mtime: u32,
}

/// Operation counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct FsStats {
    /// Files created.
    pub creates: u64,
    /// Files removed.
    pub unlinks: u64,
    /// Bytes read through [`MinixFs::read`].
    pub bytes_read: u64,
    /// Bytes written through [`MinixFs::write`].
    pub bytes_written: u64,
    /// Blocks pulled in by read-ahead.
    pub readahead_blocks: u64,
}

/// The file system.
pub struct MinixFs<S: BlockStore> {
    store: S,
    /// The store's block size, read once.
    bs: usize,
    sb: SuperBlock,
    cache: BufferCache,
    ibitmap: Bitmap,
    ibitmap_dirty: bool,
    config: FsConfig,
    /// `(ino, last file-block index)` of the last read, for read-ahead.
    last_read: Option<(Ino, u64)>,
    /// Group of the most recently created file, the interfile-clustering
    /// hint for the next one.
    last_group: u64,
    /// Directory indexes by i-node. A directory has one from `dir_init`, or
    /// from the first scan after `mount` that reads all its blocks.
    dirs: HashMap<Ino, DirIndex>,
    stats: FsStats,
}

impl<S: BlockStore> DirBlocks for MinixFs<S> {
    type Dir = Inode;
    type Error = FsError;

    fn dir_block(&mut self, dir: &Inode, idx: u64) -> Result<Option<Addr>> {
        let Some(a) = self.zone_at(dir, idx)? else {
            return Ok(None);
        };
        self.touch(a, self.bs)?;
        Ok(Some(a))
    }

    fn dir_bytes(&self, addr: Addr) -> Result<&[u8]> {
        self.cached(addr)
    }
}

impl<S: BlockStore> MinixFs<S> {
    // ----- formatting and mounting -----

    /// Creates a fresh file system on `store`.
    pub fn format(mut store: S, config: FsConfig) -> Result<Self> {
        let bs = store.block_size();
        if config.inode_mode == InodeMode::SmallBlocks && !store.supports_small_blocks() {
            return Err(FsError::Store(
                "store does not support small i-node blocks".into(),
            ));
        }
        let ninodes = config.ninodes;
        // I-node bitmap blocks.
        let bitmap_bytes = (ninodes as usize).div_ceil(8);
        let nbitmap = bitmap_bytes.div_ceil(bs).max(1);
        let mut bitmap_blocks = Vec::with_capacity(nbitmap);
        let mut prev = Some(store.superblock_addr());
        for _ in 0..nbitmap {
            let a = store.alloc_block(&AllocHint::after(prev))?;
            store.write_block(a, &vec![0u8; bs])?;
            prev = Some(a);
            bitmap_blocks.push(a);
        }
        // I-node containers.
        let ncontainers = match config.inode_mode {
            InodeMode::Packed => (ninodes as usize).div_ceil(bs / INODE_SIZE),
            InodeMode::SmallBlocks => (ninodes as usize).div_ceil(bs / 4),
        };
        let mut inode_containers = Vec::with_capacity(ncontainers);
        for _ in 0..ncontainers {
            let a = store.alloc_block(&AllocHint::after(prev))?;
            store.write_block(a, &vec![0u8; bs])?;
            prev = Some(a);
            inode_containers.push(a);
        }
        let sb = SuperBlock {
            ninodes,
            inode_mode: config.inode_mode,
            inode_containers,
            bitmap_blocks,
        };
        let sb_bytes = sb.encode(bs);
        store.write_block(store.superblock_addr(), &sb_bytes)?;

        let mut fs = Self {
            cache: BufferCache::new(config.cache_bytes),
            ibitmap: Bitmap::new(ninodes as usize),
            ibitmap_dirty: true,
            store,
            bs,
            sb,
            config,
            last_read: None,
            last_group: 0,
            dirs: HashMap::new(),
            stats: FsStats::default(),
        };
        // Root directory.
        let root = fs.alloc_inode(FileType::Dir, 0)?;
        debug_assert_eq!(root, ROOT_INO);
        let mut root_inode = fs.read_inode(root)?;
        fs.dir_init(root, &mut root_inode, root)?;
        fs.write_inode(root, &root_inode)?;
        fs.sync()?;
        Ok(fs)
    }

    /// Mounts an existing file system. `config` supplies runtime knobs
    /// (cache size, CPU model); the i-node count and layout come from the
    /// superblock.
    pub fn mount(mut store: S, mut config: FsConfig) -> Result<Self> {
        let bs = store.block_size();
        let mut buf = vec![0u8; bs];
        store.read_block(store.superblock_addr(), &mut buf)?;
        let sb = SuperBlock::decode(&buf)?;
        config.ninodes = sb.ninodes;
        config.inode_mode = sb.inode_mode;
        // Reload the i-node bitmap.
        let mut bytes = Vec::with_capacity(sb.bitmap_blocks.len() * bs);
        for a in &sb.bitmap_blocks {
            let mut block = vec![0u8; bs];
            store.read_block(*a, &mut block)?;
            bytes.extend_from_slice(&block);
        }
        let ibitmap = Bitmap::from_bytes(&bytes, sb.ninodes as usize);
        Ok(Self {
            cache: BufferCache::new(config.cache_bytes),
            ibitmap,
            ibitmap_dirty: false,
            store,
            bs,
            sb,
            config,
            last_read: None,
            last_group: 0,
            dirs: HashMap::new(),
            stats: FsStats::default(),
        })
    }

    // ----- accessors -----

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the file system, returning the store (crash simulation:
    /// all cached state is discarded).
    pub fn into_store(self) -> S {
        self.store
    }

    /// Operation counters.
    pub fn stats(&self) -> &FsStats {
        &self.stats
    }

    /// Buffer-cache (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.store.now_us()
    }

    /// Span start: the current simulated time, only if the device has a
    /// tracer. Every public operation records an [`ld_trace::Event::FsOp`]
    /// latency span there; tracing never advances the simulated clock.
    #[inline]
    fn trace_start(&self) -> Option<u64> {
        self.store.tracer().map(|_| self.store.now_us())
    }

    /// Span end: records the completed operation, no-op untraced.
    #[inline]
    fn trace_op(&self, op: ld_trace::FsOpKind, start: Option<u64>) {
        if let (Some(t), Some(start_us)) = (self.store.tracer(), start) {
            let end = self.store.now_us();
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

    fn charge_call(&mut self) {
        self.store.advance_us(self.config.cpu.per_call_us);
    }

    fn charge_blocks(&mut self, n: u64) {
        self.store.advance_us(n * self.config.cpu.per_block_us);
    }

    fn mtime_now(&self) -> u32 {
        (self.store.now_us() / 1_000_000) as u32
    }

    // ----- cache plumbing -----

    fn write_evicted(&mut self, evicted: Vec<Evicted>) -> Result<()> {
        for e in evicted {
            self.store.write_block(e.addr, &e.data)?;
        }
        Ok(())
    }

    /// Reads a block of allocated size `len` through the cache: a hit, or
    /// a read from the store and an insert.
    fn touch(&mut self, addr: Addr, len: usize) -> Result<()> {
        if self.cache.get(addr).is_none() {
            let mut buf = vec![0u8; len];
            // Never-written blocks legitimately read back short (LD) — the
            // zero padding stands in for them.
            let _ = self.store.read_block(addr, &mut buf)?;
            let evicted = self.cache.insert_clean(addr, buf);
            self.write_evicted(evicted)?;
        }
        Ok(())
    }

    /// [`touch`](Self::touch), returning the cached bytes.
    fn fetch(&mut self, addr: Addr, len: usize) -> Result<&[u8]> {
        self.touch(addr, len)?;
        self.cached(addr)
    }

    /// A resident block's bytes, without touching recency or the counters.
    fn cached(&self, addr: Addr) -> Result<&[u8]> {
        self.cache
            .peek(addr)
            .ok_or_else(|| FsError::Store(format!("block {addr} left the cache")))
    }

    /// Loads a copy of a block of allocated size `len` through the cache.
    fn load(&mut self, addr: Addr, len: usize) -> Result<Vec<u8>> {
        self.fetch(addr, len).map(<[u8]>::to_vec)
    }

    /// Stores a block image through the cache (write-back).
    fn save(&mut self, addr: Addr, data: Vec<u8>) -> Result<()> {
        let evicted = self.cache.insert_dirty(addr, data);
        self.write_evicted(evicted)
    }

    // ----- i-node table -----

    fn check_ino(&self, ino: Ino) -> Result<()> {
        if ino == 0 || ino > self.sb.ninodes {
            return Err(FsError::NotFound);
        }
        Ok(())
    }

    /// Resolves where `ino` is stored: `(block addr, byte offset, load len)`.
    fn inode_slot(&mut self, ino: Ino) -> Result<(Addr, usize, usize)> {
        self.check_ino(ino)?;
        let bs = self.bs;
        let idx = (ino - 1) as usize;
        match self.sb.inode_mode {
            InodeMode::Packed => {
                let ipb = bs / INODE_SIZE;
                let container = self.sb.inode_containers[idx / ipb];
                Ok((container, (idx % ipb) * INODE_SIZE, bs))
            }
            InodeMode::SmallBlocks => {
                let ppc = bs / 4;
                let container = self.sb.inode_containers[idx / ppc];
                let off = (idx % ppc) * 4;
                let addr = wire::le_u32(self.fetch(container, bs)?, off);
                if addr == 0 {
                    return Err(FsError::NotFound);
                }
                Ok((addr, 0, INODE_SIZE))
            }
        }
    }

    /// Reads an i-node.
    pub fn read_inode(&mut self, ino: Ino) -> Result<Inode> {
        let (addr, off, len) = self.inode_slot(ino)?;
        Inode::decode(&self.fetch(addr, len)?[off..off + INODE_SIZE]).ok_or(FsError::NotFound)
    }

    fn write_inode(&mut self, ino: Ino, inode: &Inode) -> Result<()> {
        let (addr, off, len) = self.inode_slot(ino)?;
        let mut block = self.load(addr, len)?;
        inode.encode(&mut block[off..off + INODE_SIZE]);
        self.save(addr, block)
    }

    fn alloc_inode(&mut self, ftype: FileType, group: u32) -> Result<Ino> {
        let slot = self.ibitmap.alloc_first().ok_or(FsError::NoInodes)?;
        self.ibitmap_dirty = true;
        let ino = (slot + 1) as Ino;
        if self.sb.inode_mode == InodeMode::SmallBlocks {
            // Give the i-node its own 64-byte block, allocated in the
            // file's own group so it clusters with (and is reclaimed with)
            // the file's data, and record it in the index.
            let bs = self.bs;
            let addr = self
                .store
                .alloc_sized(&AllocHint::in_group(u64::from(group), None), INODE_SIZE)?;
            let ppc = bs / 4;
            let idx = slot;
            let container = self.sb.inode_containers[idx / ppc];
            let mut index_block = self.load(container, bs)?;
            let off = (idx % ppc) * 4;
            index_block[off..off + 4].copy_from_slice(&addr.to_le_bytes());
            self.save(container, index_block)?;
        }
        let inode = Inode::new(ftype, group, self.mtime_now());
        self.write_inode(ino, &inode)?;
        Ok(ino)
    }

    /// Frees an i-node. `block_owned_by_group` marks that the i-node's
    /// small block lives in a group the caller is about to delete
    /// wholesale, so it must not be freed twice.
    fn free_inode(&mut self, ino: Ino, block_owned_by_group: bool) -> Result<()> {
        if self.sb.inode_mode == InodeMode::SmallBlocks {
            let (addr, _, _) = self.inode_slot(ino)?;
            let group = self.read_inode(ino)?.group;
            self.cache.discard(addr);
            if !block_owned_by_group {
                self.store
                    .free_block(addr, &AllocHint::in_group(u64::from(group), None))?;
            }
            // Clear the index entry.
            let bs = self.bs;
            let ppc = bs / 4;
            let idx = (ino - 1) as usize;
            let container = self.sb.inode_containers[idx / ppc];
            let mut index_block = self.load(container, bs)?;
            let off = (idx % ppc) * 4;
            index_block[off..off + 4].fill(0);
            self.save(container, index_block)?;
        } else {
            // Zero the slot: an all-zero type marks a free i-node.
            let (addr, off, len) = self.inode_slot(ino)?;
            let mut block = self.load(addr, len)?;
            block[off..off + INODE_SIZE].fill(0);
            self.save(addr, block)?;
        }
        self.ibitmap.clear((ino - 1) as usize);
        self.ibitmap_dirty = true;
        Ok(())
    }

    // ----- zone mapping -----

    /// Returns the store address of file block `idx`, or `None` for a hole.
    fn zone_at(&mut self, inode: &Inode, idx: u64) -> Result<Option<Addr>> {
        let bs = self.bs;
        let ppb = bs / 4;
        match zone_path(idx, ppb)? {
            ZonePath::Direct(i) => Ok(nonzero(inode.zones[i])),
            ZonePath::Indirect(i) => {
                let Some(ind) = nonzero(inode.zones[IND]) else {
                    return Ok(None);
                };
                Ok(nonzero(read_u32(self.fetch(ind, bs)?, i)))
            }
            ZonePath::Double(i, j) => {
                let Some(dind) = nonzero(inode.zones[DIND]) else {
                    return Ok(None);
                };
                let Some(ind) = nonzero(read_u32(self.fetch(dind, bs)?, i)) else {
                    return Ok(None);
                };
                Ok(nonzero(read_u32(self.fetch(ind, bs)?, j)))
            }
        }
    }

    /// Returns the store address of file block `idx`, allocating the block
    /// (and any needed indirect blocks) in the file's group.
    fn zone_alloc(&mut self, inode: &mut Inode, idx: u64) -> Result<Addr> {
        let bs = self.bs;
        let ppb = bs / 4;
        let group = u64::from(inode.group);
        let prev = if idx > 0 {
            self.zone_at(inode, idx - 1)?
        } else {
            None
        };
        let hint = AllocHint::in_group(group, prev);
        match zone_path(idx, ppb)? {
            ZonePath::Direct(i) => {
                if let Some(a) = nonzero(inode.zones[i]) {
                    return Ok(a);
                }
                let a = self.store.alloc_block(&hint)?;
                inode.zones[i] = a;
                Ok(a)
            }
            ZonePath::Indirect(i) => {
                let ind = match nonzero(inode.zones[IND]) {
                    Some(a) => a,
                    None => {
                        let a = self.store.alloc_block(&hint)?;
                        self.save(a, vec![0u8; bs])?;
                        inode.zones[IND] = a;
                        a
                    }
                };
                self.alloc_in_table(ind, i, &hint)
            }
            ZonePath::Double(i, j) => {
                let dind = match nonzero(inode.zones[DIND]) {
                    Some(a) => a,
                    None => {
                        let a = self.store.alloc_block(&hint)?;
                        self.save(a, vec![0u8; bs])?;
                        inode.zones[DIND] = a;
                        a
                    }
                };
                let ind = match nonzero(read_u32(self.fetch(dind, bs)?, i)) {
                    Some(a) => a,
                    None => {
                        let a = self.store.alloc_block(&hint)?;
                        self.save(a, vec![0u8; bs])?;
                        let mut block = self.load(dind, bs)?;
                        write_u32(&mut block, i, a);
                        self.save(dind, block)?;
                        a
                    }
                };
                self.alloc_in_table(ind, j, &hint)
            }
        }
    }

    /// Allocates (if needed) entry `i` of indirect block `table`.
    fn alloc_in_table(&mut self, table: Addr, i: usize, hint: &AllocHint) -> Result<Addr> {
        let bs = self.bs;
        if let Some(a) = nonzero(read_u32(self.fetch(table, bs)?, i)) {
            return Ok(a);
        }
        let a = self.store.alloc_block(hint)?;
        let mut block = self.load(table, bs)?;
        write_u32(&mut block, i, a);
        self.save(table, block)?;
        Ok(a)
    }

    /// Collects every allocated block of a file, in allocation order
    /// (data blocks interleaved with the indirect blocks that precede
    /// their first use).
    fn collect_blocks(&mut self, inode: &Inode) -> Result<Vec<Addr>> {
        let bs = self.bs;
        let ppb = bs / 4;
        let mut out = Vec::new();
        let nblocks = (u64::from(inode.size)).div_ceil(bs as u64);
        let mut seen_ind = false;
        let mut seen_dind = false;
        let mut seen_sub: Option<usize> = None;
        for idx in 0..nblocks {
            match zone_path(idx, ppb)? {
                ZonePath::Direct(_) => {}
                ZonePath::Indirect(_) => {
                    if !seen_ind {
                        seen_ind = true;
                        if let Some(a) = nonzero(inode.zones[IND]) {
                            out.push(a);
                        }
                    }
                }
                ZonePath::Double(i, _) => {
                    if !seen_dind {
                        seen_dind = true;
                        if let Some(a) = nonzero(inode.zones[DIND]) {
                            out.push(a);
                        }
                    }
                    if seen_sub != Some(i) {
                        seen_sub = Some(i);
                        if let Some(dind) = nonzero(inode.zones[DIND]) {
                            if let Some(a) = nonzero(read_u32(self.fetch(dind, bs)?, i)) {
                                out.push(a);
                            }
                        }
                    }
                }
            }
            if let Some(a) = self.zone_at(inode, idx)? {
                out.push(a);
            }
        }
        Ok(out)
    }

    /// Frees every block of a file. When the file has its own group the
    /// whole group is deleted in one call (LD `DeleteList`); otherwise
    /// blocks are freed individually, newest first, with predecessor
    /// hints.
    fn free_content(&mut self, inode: &Inode) -> Result<()> {
        let addrs = self.collect_blocks(inode)?;
        for a in &addrs {
            self.cache.discard(*a);
        }
        if inode.group != 0 {
            self.store.delete_group(u64::from(inode.group))?;
            return Ok(());
        }
        for (i, a) in addrs.iter().enumerate().rev() {
            let prev = if i > 0 { Some(addrs[i - 1]) } else { None };
            self.store.free_block(*a, &AllocHint::in_group(0, prev))?;
        }
        Ok(())
    }

    // ----- directories -----
    //
    // MINIX scans a directory block by block (`dirent::locate`). An indexed
    // directory still reads each block the scan reads, in the same order,
    // but compares no bytes. Each operation takes the index out of `dirs`
    // and puts it back only on success, so an error part-way drops it and
    // the next scan that reads every block rebuilds it.

    /// Writes the initial "." and ".." entries of a new directory and
    /// indexes them.
    fn dir_init(&mut self, ino: Ino, inode: &mut Inode, parent: Ino) -> Result<()> {
        let bs = self.bs;
        let a = self.zone_alloc(inode, 0)?;
        let mut block = vec![0u8; bs];
        dirent::encode(ino, ".", &mut block[0..DIRENT_SIZE]);
        dirent::encode(parent, "..", &mut block[DIRENT_SIZE..2 * DIRENT_SIZE]);
        let mut index = DirIndex::default();
        index.add_block(0, &block);
        self.save(a, block)?;
        self.dirs.insert(ino, index);
        inode.size = bs as u32;
        inode.mtime = self.mtime_now();
        Ok(())
    }

    /// Runs the scan of directory `dir_ino` for `probe`, with its index
    /// taken out of `dirs`.
    fn dir_locate(&mut self, dir_ino: Ino, dir: &Inode, probe: Probe<'_>) -> Result<Located> {
        let nblocks = u64::from(dir.size).div_ceil(self.bs as u64);
        let index = self.dirs.remove(&dir_ino);
        dirent::locate(self, dir, nblocks, probe, index)
    }

    /// Puts a directory's index back once its operation has succeeded.
    fn dir_keep(&mut self, dir_ino: Ino, index: Option<DirIndex>) {
        if let Some(index) = index {
            self.dirs.insert(dir_ino, index);
        }
    }

    /// Finds `name` in directory `dir_ino`.
    fn dir_find(&mut self, dir_ino: Ino, dir: &Inode, name: &str) -> Result<Option<Ino>> {
        let Located { stop, index } = self.dir_locate(dir_ino, dir, Probe::Name(name))?;
        self.dir_keep(dir_ino, index);
        Ok(stop.map(|(_, at)| at.ino))
    }

    /// Adds an entry, reusing a free slot or extending the directory.
    fn dir_add(&mut self, dir_ino: Ino, dir: &mut Inode, name: &str, ino: Ino) -> Result<()> {
        let bs = self.bs;
        let Located { stop, mut index } = self.dir_locate(dir_ino, dir, Probe::Free)?;
        let (a, at, mut block) = match stop {
            Some((a, at)) => (a, at, self.cached(a)?.to_vec()),
            None => {
                // Extend by one block.
                let idx = u64::from(dir.size).div_ceil(bs as u64);
                let a = self.zone_alloc(dir, idx)?;
                let block = vec![0u8; bs];
                if let Some(ix) = &mut index {
                    ix.add_block(idx, &block);
                }
                dir.size += bs as u32;
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
        self.save(a, block)?;
        dir.mtime = self.mtime_now();
        self.write_inode(dir_ino, dir)?;
        self.dir_keep(dir_ino, index);
        Ok(())
    }

    /// Removes an entry; errors with [`FsError::NotFound`] if absent.
    fn dir_remove(&mut self, dir_ino: Ino, dir: &mut Inode, name: &str) -> Result<Ino> {
        let Located { stop, mut index } = self.dir_locate(dir_ino, dir, Probe::Name(name))?;
        let Some((a, at)) = stop else {
            self.dir_keep(dir_ino, index);
            return Err(FsError::NotFound);
        };
        let mut block = self.cached(a)?.to_vec();
        dirent::clear(&mut block[at.slot * DIRENT_SIZE..(at.slot + 1) * DIRENT_SIZE]);
        if let Some(ix) = &mut index {
            ix.clear(at, name);
        }
        self.save(a, block)?;
        dir.mtime = self.mtime_now();
        self.write_inode(dir_ino, dir)?;
        self.dir_keep(dir_ino, index);
        Ok(at.ino)
    }

    /// Resolves a path to its i-node.
    pub fn lookup(&mut self, path_str: &str) -> Result<Ino> {
        let t0 = self.trace_start();
        let r = self.lookup_inner(path_str);
        self.trace_op(ld_trace::FsOpKind::Lookup, t0);
        r
    }

    fn lookup_inner(&mut self, path_str: &str) -> Result<Ino> {
        let comps = path::split(path_str)?;
        let mut cur = ROOT_INO;
        for comp in comps {
            let inode = self.read_inode(cur)?;
            if inode.ftype != FileType::Dir {
                return Err(FsError::NotDir);
            }
            cur = self.dir_find(cur, &inode, comp)?.ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    fn lookup_parent(&mut self, path_str: &str) -> Result<(Ino, String)> {
        let (parent_comps, name) = path::split_parent(path_str)?;
        let mut cur = ROOT_INO;
        for comp in parent_comps {
            let inode = self.read_inode(cur)?;
            if inode.ftype != FileType::Dir {
                return Err(FsError::NotDir);
            }
            cur = self.dir_find(cur, &inode, comp)?.ok_or(FsError::NotFound)?;
        }
        Ok((cur, name.to_string()))
    }

    // ----- public operations -----

    /// Creates an empty regular file.
    pub fn create(&mut self, path_str: &str) -> Result<Ino> {
        let t0 = self.trace_start();
        let r = self.create_inner(path_str);
        self.trace_op(ld_trace::FsOpKind::Create, t0);
        r
    }

    fn create_inner(&mut self, path_str: &str) -> Result<Ino> {
        self.charge_call();
        let (parent, name) = self.lookup_parent(path_str)?;
        let mut dir = self.read_inode(parent)?;
        if dir.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        if self.dir_find(parent, &dir, &name)?.is_some() {
            return Err(FsError::Exists);
        }
        // Each file gets its own list, clustered near the previous file's.
        let near = (self.last_group != 0).then_some(self.last_group);
        let group = self.store.new_group(near)?;
        self.last_group = group;
        let ino = self.alloc_inode(FileType::Regular, group as u32)?;
        self.dir_add(parent, &mut dir, &name, ino)?;
        self.stats.creates += 1;
        Ok(ino)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path_str: &str) -> Result<Ino> {
        let t0 = self.trace_start();
        let r = self.mkdir_inner(path_str);
        self.trace_op(ld_trace::FsOpKind::Mkdir, t0);
        r
    }

    fn mkdir_inner(&mut self, path_str: &str) -> Result<Ino> {
        self.charge_call();
        let (parent, name) = self.lookup_parent(path_str)?;
        let mut dir = self.read_inode(parent)?;
        if dir.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        if self.dir_find(parent, &dir, &name)?.is_some() {
            return Err(FsError::Exists);
        }
        let ino = self.alloc_inode(FileType::Dir, 0)?;
        let mut inode = self.read_inode(ino)?;
        self.dir_init(ino, &mut inode, parent)?;
        self.write_inode(ino, &inode)?;
        self.dir_add(parent, &mut dir, &name, ino)?;
        Ok(ino)
    }

    /// Writes `data` at byte `offset` of the file, extending it as needed.
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
            return Err(FsError::IsDir);
        }
        let bs = self.bs as u64;
        let mut pos = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let idx = pos / bs;
            let inner = (pos % bs) as usize;
            let n = rest.len().min(bs as usize - inner);
            let a = self.zone_alloc(&mut inode, idx)?;
            if inner == 0 && n == bs as usize {
                self.save(a, rest[..n].to_vec())?;
            } else {
                let mut block = self.load(a, bs as usize)?;
                block[inner..inner + n].copy_from_slice(&rest[..n]);
                self.save(a, block)?;
            }
            pos += n as u64;
            rest = &rest[n..];
        }
        inode.size = inode
            .size
            .max(u32::try_from(offset + data.len() as u64).map_err(|_| FsError::NoSpace)?);
        inode.mtime = self.mtime_now();
        self.write_inode(ino, &inode)?;
        self.stats.bytes_written += data.len() as u64;
        self.charge_blocks(data.len().div_ceil(bs as usize) as u64);
        Ok(())
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns the byte count.
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        let t0 = self.trace_start();
        let r = self.read_inner(ino, offset, buf);
        self.trace_op(ld_trace::FsOpKind::Read, t0);
        r
    }

    fn read_inner(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.charge_call();
        let inode = self.read_inode(ino)?;
        let bs = self.bs as u64;
        let size = u64::from(inode.size);
        if offset >= size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(size - offset) as usize;
        let mut done = 0usize;
        let mut pos = offset;
        let mut last_idx = offset / bs;
        while done < want {
            let idx = pos / bs;
            let inner = (pos % bs) as usize;
            let n = (want - done).min(bs as usize - inner);
            match self.zone_at(&inode, idx)? {
                Some(a) => {
                    let block = self.fetch(a, bs as usize)?;
                    buf[done..done + n].copy_from_slice(&block[inner..inner + n]);
                }
                None => buf[done..done + n].fill(0),
            }
            last_idx = idx;
            pos += n as u64;
            done += n;
        }
        // Read-ahead (enabled only when the store benefits from it, §4.1).
        // The prefetch zones are fetched in one batched store request so
        // contiguous blocks coalesce, as MINIX's read-ahead does.
        if self.store.supports_readahead() {
            let nblocks = size.div_ceil(bs);
            let mut prefetch = Vec::new();
            for k in last_idx + 1..=(last_idx + READAHEAD_BLOCKS).min(nblocks.saturating_sub(1)) {
                if let Some(a) = self.zone_at(&inode, k)? {
                    if !self.cache.contains(a) {
                        prefetch.push(a);
                    }
                }
            }
            if !prefetch.is_empty() {
                let blocks = self.store.read_blocks(&prefetch)?;
                for (a, data) in prefetch.iter().zip(blocks) {
                    let evicted = self.cache.insert_clean(*a, data);
                    self.write_evicted(evicted)?;
                    self.stats.readahead_blocks += 1;
                }
            }
        }
        self.last_read = Some((ino, last_idx));
        self.stats.bytes_read += done as u64;
        self.charge_blocks(done.div_ceil(bs as usize) as u64);
        Ok(done)
    }

    /// Truncates a file to zero length, freeing its blocks individually.
    pub fn truncate(&mut self, ino: Ino) -> Result<()> {
        let t0 = self.trace_start();
        let r = self.truncate_inner(ino);
        self.trace_op(ld_trace::FsOpKind::Truncate, t0);
        r
    }

    fn truncate_inner(&mut self, ino: Ino) -> Result<()> {
        self.charge_call();
        let mut inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::IsDir);
        }
        // Individual frees even for grouped files: the group must survive
        // for future writes.
        let addrs = self.collect_blocks(&inode)?;
        for a in &addrs {
            self.cache.discard(*a);
        }
        for (i, a) in addrs.iter().enumerate().rev() {
            let prev = if i > 0 { Some(addrs[i - 1]) } else { None };
            self.store
                .free_block(*a, &AllocHint::in_group(u64::from(inode.group), prev))?;
        }
        inode.zones = [0; inode::ZONES];
        inode.size = 0;
        inode.mtime = self.mtime_now();
        self.write_inode(ino, &inode)
    }

    /// Removes a regular file.
    pub fn unlink(&mut self, path_str: &str) -> Result<()> {
        let t0 = self.trace_start();
        let r = self.unlink_inner(path_str);
        self.trace_op(ld_trace::FsOpKind::Unlink, t0);
        r
    }

    fn unlink_inner(&mut self, path_str: &str) -> Result<()> {
        self.charge_call();
        let (parent, name) = self.lookup_parent(path_str)?;
        let mut dir = self.read_inode(parent)?;
        let ino = self
            .dir_find(parent, &dir, &name)?
            .ok_or(FsError::NotFound)?;
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::IsDir);
        }
        self.dir_remove(parent, &mut dir, &name)?;
        let grouped = self.sb.inode_mode == InodeMode::SmallBlocks && inode.group != 0;
        self.free_inode(ino, grouped)?;
        self.free_content(&inode)?;
        self.stats.unlinks += 1;
        Ok(())
    }

    /// Renames a file or directory. The destination must not exist.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.charge_call();
        let (to_parent, to_name) = self.lookup_parent(to)?;
        let to_dir = self.read_inode(to_parent)?;
        if to_dir.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        if self.dir_find(to_parent, &to_dir, &to_name)?.is_some() {
            return Err(FsError::Exists);
        }
        let (from_parent, from_name) = self.lookup_parent(from)?;
        let mut from_dir = self.read_inode(from_parent)?;
        let ino = self
            .dir_find(from_parent, &from_dir, &from_name)?
            .ok_or(FsError::NotFound)?;
        // A directory must not be moved under itself.
        if self.read_inode(ino)?.ftype == FileType::Dir {
            let mut cur = to_parent;
            loop {
                if cur == ino {
                    return Err(FsError::Path(fsutil::PathError::BadComponent(
                        from_name.clone(),
                    )));
                }
                if cur == ROOT_INO {
                    break;
                }
                let parent_inode = self.read_inode(cur)?;
                cur = self
                    .dir_find(cur, &parent_inode, "..")?
                    .ok_or(FsError::NotFound)?;
            }
        }
        self.dir_remove(from_parent, &mut from_dir, &from_name)?;
        let mut to_dir = self.read_inode(to_parent)?;
        self.dir_add(to_parent, &mut to_dir, &to_name, ino)?;
        // Fix ".." when a directory changed parents.
        if from_parent != to_parent && self.read_inode(ino)?.ftype == FileType::Dir {
            let mut child = self.read_inode(ino)?;
            self.dir_remove(ino, &mut child, "..")?;
            let mut child = self.read_inode(ino)?;
            self.dir_add(ino, &mut child, "..", to_parent)?;
        }
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path_str: &str) -> Result<()> {
        self.charge_call();
        let (parent, name) = self.lookup_parent(path_str)?;
        let mut dir = self.read_inode(parent)?;
        let ino = self
            .dir_find(parent, &dir, &name)?
            .ok_or(FsError::NotFound)?;
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        if self
            .readdir_ino(ino)?
            .iter()
            .any(|d| d.name != "." && d.name != "..")
        {
            return Err(FsError::NotEmpty);
        }
        self.dirs.remove(&ino);
        self.dir_remove(parent, &mut dir, &name)?;
        self.free_content(&inode)?;
        self.free_inode(ino, false)?;
        Ok(())
    }

    /// Lists a directory by path.
    pub fn readdir(&mut self, path_str: &str) -> Result<Vec<Dirent>> {
        self.charge_call();
        let ino = self.lookup(path_str)?;
        self.readdir_ino(ino)
    }

    fn readdir_ino(&mut self, ino: Ino) -> Result<Vec<Dirent>> {
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        let bs = self.bs;
        let nblocks = u64::from(inode.size).div_ceil(bs as u64);
        let mut out = Vec::new();
        for idx in 0..nblocks {
            let Some(a) = self.zone_at(&inode, idx)? else {
                continue;
            };
            out.extend(dirent::iter_block(self.fetch(a, bs)?).map(|(_, d)| d));
        }
        Ok(out)
    }

    /// Stats a file or directory.
    pub fn stat(&mut self, ino: Ino) -> Result<Stat> {
        let inode = self.read_inode(ino)?;
        Ok(Stat {
            ftype: inode.ftype,
            size: inode.size,
            mtime: inode.mtime,
        })
    }

    /// Writes back all dirty state (cache, i-node bitmap) and syncs the
    /// store — MINIX's `sync`, which over LD "tells LLD to flush the
    /// segment that is currently being filled" (§4.1).
    pub fn sync(&mut self) -> Result<()> {
        let t0 = self.trace_start();
        let r = self.sync_inner();
        self.trace_op(ld_trace::FsOpKind::Sync, t0);
        r
    }

    fn sync_inner(&mut self) -> Result<()> {
        self.charge_call();
        if self.ibitmap_dirty {
            let bs = self.bs;
            let bytes = self.ibitmap.as_bytes().to_vec();
            for (i, addr) in self.sb.bitmap_blocks.clone().into_iter().enumerate() {
                let start = i * bs;
                if start >= bytes.len() {
                    break;
                }
                let end = (start + bs).min(bytes.len());
                let mut block = bytes[start..end].to_vec();
                block.resize(bs, 0);
                self.save(addr, block)?;
            }
            self.ibitmap_dirty = false;
        }
        let dirty = self.cache.take_dirty();
        for e in dirty {
            self.store.write_block(e.addr, &e.data)?;
        }
        self.store.sync()
    }

    /// Syncs, then empties the buffer cache — used between benchmark
    /// phases ("we flushed the file cache before each phase", §4.2).
    pub fn drop_caches(&mut self) -> Result<()> {
        self.sync()?;
        let leftover = self.cache.drop_all();
        debug_assert!(leftover.is_empty(), "sync left dirty blocks behind");
        self.last_read = None;
        Ok(())
    }
}

fn nonzero(a: Addr) -> Option<Addr> {
    (a != 0).then_some(a)
}

fn read_u32(block: &[u8], i: usize) -> u32 {
    wire::le_u32(block, i * 4)
}

fn write_u32(block: &mut [u8], i: usize, v: u32) {
    block[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests;
