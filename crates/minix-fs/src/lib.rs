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
//! file system code were modified", §4.1). The file management itself is
//! `fsutil`'s engine ([`fsutil::fs::Fs`]), shared with the FFS baseline;
//! this crate supplies MINIX's [`Layout`]. Each file gets its own LD list
//! (§4.1's final configuration); the i-node layout, packed or 64-byte
//! blocks ([`InodeMode`]), is configuration, and read-ahead runs only over
//! stores that benefit from it.

mod config;
mod inode;
mod ld_store;
mod raw_store;
mod store;
mod superblock;

pub use config::{FsConfig, FsCpuModel, InodeMode};
pub use fsutil::fs::{FileType, FsError, FsStats, Ino, Inode, Result, Stat, INODE_SIZE, ROOT_INO};
pub use ld_store::LdStore;
pub use raw_store::RawStore;
pub use store::{Addr, AllocHint, BlockStore};
pub use superblock::SuperBlock;

use fsutil::dirent::Dirent;
use fsutil::fs::{Fs, Layout, ReadAhead, NPTRS};
use fsutil::{wire, Bitmap};

/// Blocks read ahead on sequential access, over stores that support it.
const READAHEAD_BLOCKS: u64 = 2;

/// MINIX's disk management: the store, the superblock's i-node table and
/// the i-node bitmap.
struct Minix<S> {
    store: S,
    /// The store's block size, read once.
    bs: usize,
    sb: SuperBlock,
    ibitmap: Bitmap,
    ibitmap_dirty: bool,
    config: FsConfig,
    /// Group of the most recently created file, the interfile-clustering
    /// hint for the next one.
    last_group: u64,
}

/// The file system.
pub struct MinixFs<S: BlockStore> {
    fs: Fs<Minix<S>>,
}

impl<S: BlockStore> Minix<S> {
    /// The index entry of `ino` under [`InodeMode::SmallBlocks`]: the index
    /// block and the byte offset of the i-node's address in it.
    fn index_entry(&self, ino: Ino) -> (Addr, usize) {
        let idx = (ino - 1) as usize;
        let ppc = self.bs / 4;
        (self.sb.inode_containers[idx / ppc], (idx % ppc) * 4)
    }

    /// Points `ino`'s index entry at `addr` (0 clears it).
    fn set_index(fs: &mut Fs<Self>, ino: Ino, addr: Addr) -> Result<()> {
        let (container, off) = fs.layout.index_entry(ino);
        let bs = fs.layout.bs;
        fs.edit(container, bs, |block| {
            block[off..off + 4].copy_from_slice(&addr.to_le_bytes())
        })
    }

    /// Frees an i-node. `block_owned_by_group` marks that the i-node's
    /// small block lives in a group the caller is about to delete
    /// wholesale, so it must not be freed twice.
    fn free_inode(fs: &mut Fs<Self>, ino: Ino, block_owned_by_group: bool) -> Result<()> {
        if fs.layout.sb.inode_mode == InodeMode::SmallBlocks {
            let (addr, _, _) = Self::inode_slot(fs, ino)?;
            let group = fs.read_inode(ino)?.group;
            fs.cache.discard(addr);
            if !block_owned_by_group {
                let hint = AllocHint::in_group(u64::from(group), None);
                fs.layout.store.free_block(addr, &hint)?;
            }
            Self::set_index(fs, ino, 0)?;
        } else {
            // Zero the slot: an all-zero type marks a free i-node.
            fs.clear_inode(ino)?;
        }
        fs.layout.ibitmap.clear((ino - 1) as usize);
        fs.layout.ibitmap_dirty = true;
        Ok(())
    }

    /// Frees every block of a file, newest first with predecessor hints.
    /// With `whole_group`, a file in its own group has the group deleted in
    /// one call instead (LD `DeleteList`).
    fn free_blocks(fs: &mut Fs<Self>, inode: &Inode, whole_group: bool) -> Result<()> {
        let addrs = fs.collect_blocks(inode)?;
        for a in &addrs {
            fs.cache.discard(*a);
        }
        let group = u64::from(inode.group);
        if whole_group && group != 0 {
            return fs.layout.store.delete_group(group);
        }
        for (i, a) in addrs.iter().enumerate().rev() {
            let prev = i.checked_sub(1).map(|p| addrs[p]);
            fs.layout
                .store
                .free_block(*a, &AllocHint::in_group(group, prev))?;
        }
        Ok(())
    }
}

impl<S: BlockStore> Layout for Minix<S> {
    const MAX_SIZE: u64 = u32::MAX as u64;

    fn block_size(&self) -> usize {
        self.bs
    }

    fn ninodes(&self) -> u32 {
        self.sb.ninodes
    }

    fn encode_inode(inode: &Inode, slot: &mut [u8]) {
        inode::encode(inode, slot);
    }

    fn decode_inode(slot: &[u8]) -> Option<Inode> {
        inode::decode(slot)
    }

    fn inode_slot(fs: &mut Fs<Self>, ino: Ino) -> Result<(Addr, usize, usize)> {
        let bs = fs.layout.bs;
        match fs.layout.sb.inode_mode {
            InodeMode::Packed => {
                let idx = (ino - 1) as usize;
                let ipb = bs / INODE_SIZE;
                let container = fs.layout.sb.inode_containers[idx / ipb];
                Ok((container, (idx % ipb) * INODE_SIZE, bs))
            }
            InodeMode::SmallBlocks => {
                let (container, off) = fs.layout.index_entry(ino);
                match wire::le_u32(fs.fetch(container, bs)?, off) {
                    0 => Err(FsError::NotFound),
                    addr => Ok((addr, 0, INODE_SIZE)),
                }
            }
        }
    }

    fn new_inode(fs: &mut Fs<Self>, _parent: Ino, ftype: FileType) -> Result<(Ino, Inode)> {
        let l = &mut fs.layout;
        let group = match ftype {
            // Each file gets its own list, clustered near the previous
            // file's.
            FileType::Regular => {
                let near = (l.last_group != 0).then_some(l.last_group);
                l.last_group = l.store.new_group(near)?;
                l.last_group
            }
            FileType::Dir => 0,
        };
        let slot = l.ibitmap.alloc_first().ok_or(FsError::NoInodes)?;
        l.ibitmap_dirty = true;
        let ino = (slot + 1) as Ino;
        if l.sb.inode_mode == InodeMode::SmallBlocks {
            // Give the i-node its own 64-byte block, allocated in the
            // file's own group so it clusters with (and is reclaimed with)
            // the file's data, and record it in the index.
            let addr = l
                .store
                .alloc_sized(&AllocHint::in_group(group, None), INODE_SIZE)?;
            Self::set_index(fs, ino, addr)?;
        }
        let inode = Inode::new(ftype, group as u32, fs.mtime_now());
        if ftype == FileType::Dir {
            // A directory's i-node is written at once and read back before
            // its first block is allocated.
            fs.write_inode(ino, &inode)?;
            return Ok((ino, fs.read_inode(ino)?));
        }
        Ok((ino, inode))
    }

    fn alloc_block(&mut self, inode: &Inode, prev: Option<Addr>) -> Result<Addr> {
        let hint = AllocHint::in_group(u64::from(inode.group), prev);
        self.store.alloc_block(&hint)
    }

    fn free_file(fs: &mut Fs<Self>, ino: Ino, inode: &Inode) -> Result<()> {
        let grouped = fs.layout.sb.inode_mode == InodeMode::SmallBlocks && inode.group != 0;
        Self::free_inode(fs, ino, grouped)?;
        Self::free_blocks(fs, inode, true)
    }

    /// Writes back the i-node bitmap and the cache, then syncs the store —
    /// MINIX's `sync`, which over LD "tells LLD to flush the segment that is
    /// currently being filled" (§4.1).
    fn sync(fs: &mut Fs<Self>) -> Result<()> {
        if fs.layout.ibitmap_dirty {
            let l = &fs.layout;
            let blocks: Vec<(Addr, Vec<u8>)> =
                l.sb.bitmap_blocks
                    .iter()
                    .zip(l.ibitmap.as_bytes().chunks(l.bs))
                    .map(|(&addr, chunk)| {
                        let mut block = chunk.to_vec();
                        block.resize(l.bs, 0);
                        (addr, block)
                    })
                    .collect();
            for (addr, block) in blocks {
                fs.save(addr, block)?;
            }
            fs.layout.ibitmap_dirty = false;
        }
        fs.flush_dirty()?;
        fs.layout.store.sync()
    }

    fn read_block(&mut self, addr: Addr, buf: &mut [u8]) -> Result<()> {
        // Never-written and short-written blocks legitimately read back
        // short (LD): zero padding stands in for the rest.
        let n = self.store.read_block(addr, buf)?;
        buf[n..].fill(0);
        Ok(())
    }

    fn read_blocks(&mut self, addrs: &[Addr]) -> Result<Vec<Vec<u8>>> {
        self.store.read_blocks(addrs)
    }

    fn write_block(&mut self, addr: Addr, data: &[u8]) -> Result<()> {
        self.store.write_block(addr, data)
    }

    /// Read-ahead only when the store benefits from it (§4.1), batched so
    /// contiguous blocks coalesce, as MINIX's read-ahead does.
    fn readahead(&self, _sequential: bool) -> ReadAhead {
        if self.store.supports_readahead() {
            ReadAhead::Batch(READAHEAD_BLOCKS)
        } else {
            ReadAhead::Off
        }
    }

    fn charge_call(&mut self) {
        self.store.advance_us(self.config.cpu.per_call_us);
    }

    fn charge_blocks(&mut self, n: u64) {
        self.store.advance_us(n * self.config.cpu.per_block_us);
    }

    fn now_us(&self) -> u64 {
        self.store.now_us()
    }

    fn tracer(&self) -> Option<&ld_trace::Tracer> {
        self.store.tracer()
    }
}

impl<S: BlockStore> MinixFs<S> {
    fn new(layout: Minix<S>) -> Self {
        let cache_bytes = layout.config.cache_bytes;
        Self {
            fs: Fs::new(layout, cache_bytes),
        }
    }

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
        // I-node bitmap blocks, then i-node containers, chained.
        let nbitmap = (ninodes as usize).div_ceil(8).div_ceil(bs).max(1);
        let ncontainers = match config.inode_mode {
            InodeMode::Packed => (ninodes as usize).div_ceil(bs / INODE_SIZE),
            InodeMode::SmallBlocks => (ninodes as usize).div_ceil(bs / 4),
        };
        let mut blocks = Vec::with_capacity(nbitmap + ncontainers);
        let mut prev = Some(store.superblock_addr());
        for _ in 0..nbitmap + ncontainers {
            let a = store.alloc_block(&AllocHint::after(prev))?;
            store.write_block(a, &vec![0u8; bs])?;
            prev = Some(a);
            blocks.push(a);
        }
        let inode_containers = blocks.split_off(nbitmap);
        let sb = SuperBlock {
            ninodes,
            inode_mode: config.inode_mode,
            inode_containers,
            bitmap_blocks: blocks,
        };
        store.write_block(store.superblock_addr(), &sb.encode(bs))?;

        let mut fs = Self::new(Minix {
            store,
            bs,
            sb,
            ibitmap: Bitmap::new(ninodes as usize),
            ibitmap_dirty: true,
            config,
            last_group: 0,
        });
        // Root directory.
        let (root, mut inode) = Minix::new_inode(&mut fs.fs, ROOT_INO, FileType::Dir)?;
        debug_assert_eq!(root, ROOT_INO);
        fs.fs.dir_init(root, &mut inode, root)?;
        fs.fs.write_inode(root, &inode)?;
        fs.fs.sync()?;
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
        Ok(Self::new(Minix {
            store,
            bs,
            sb,
            ibitmap,
            ibitmap_dirty: false,
            config,
            last_group: 0,
        }))
    }

    // ----- accessors -----

    /// The underlying store.
    pub fn store(&self) -> &S {
        &self.fs.layout.store
    }

    /// Mutable access to the underlying store.
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.fs.layout.store
    }

    /// Consumes the file system, returning the store (crash simulation:
    /// all cached state is discarded).
    pub fn into_store(self) -> S {
        self.fs.layout.store
    }

    /// Operation counters.
    pub fn stats(&self) -> &FsStats {
        &self.fs.stats
    }

    /// Buffer-cache (hits, misses).
    pub fn cache_stats(&self) -> (u64, u64) {
        self.fs.cache.stats()
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.fs.layout.store.now_us()
    }

    /// Reads an i-node.
    pub fn read_inode(&mut self, ino: Ino) -> Result<Inode> {
        self.fs.read_inode(ino)
    }

    // ----- operations -----

    /// Resolves a path to its i-node.
    pub fn lookup(&mut self, path_str: &str) -> Result<Ino> {
        self.fs.lookup(path_str)
    }

    /// Creates an empty regular file.
    pub fn create(&mut self, path_str: &str) -> Result<Ino> {
        self.fs.create(path_str)
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path_str: &str) -> Result<Ino> {
        self.fs.mkdir(path_str)
    }

    /// Writes `data` at byte `offset` of the file, extending it as needed.
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.fs.write(ino, offset, data)
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns the byte count.
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.fs.read(ino, offset, buf)
    }

    /// Truncates a file to zero length, freeing its blocks individually.
    pub fn truncate(&mut self, ino: Ino) -> Result<()> {
        self.fs.traced(ld_trace::FsOpKind::Truncate, |fs| {
            fs.layout.charge_call();
            let mut inode = fs.read_inode(ino)?;
            if inode.ftype != FileType::Regular {
                return Err(FsError::IsDir);
            }
            // Individual frees even for grouped files: the group must
            // survive for future writes.
            Minix::free_blocks(fs, &inode, false)?;
            inode.ptrs = [0; NPTRS];
            inode.size = 0;
            inode.mtime = fs.mtime_now();
            fs.write_inode(ino, &inode)
        })
    }

    /// Removes a regular file.
    pub fn unlink(&mut self, path_str: &str) -> Result<()> {
        self.fs.unlink(path_str)
    }

    /// Renames a file or directory. The destination must not exist.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        let fs = &mut self.fs;
        fs.layout.charge_call();
        let (to_parent, to_name) = fs.lookup_parent(to)?;
        let to_dir = fs.read_inode(to_parent)?;
        if to_dir.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        if fs.dir_find(to_parent, &to_dir, to_name)?.is_some() {
            return Err(FsError::Exists);
        }
        let (from_parent, from_name) = fs.lookup_parent(from)?;
        let mut from_dir = fs.read_inode(from_parent)?;
        let ino = fs
            .dir_find(from_parent, &from_dir, from_name)?
            .ok_or(FsError::NotFound)?;
        // A directory must not be moved under itself.
        if fs.read_inode(ino)?.ftype == FileType::Dir {
            let mut cur = to_parent;
            loop {
                if cur == ino {
                    return Err(FsError::Path(fsutil::PathError::BadComponent(
                        from_name.to_string(),
                    )));
                }
                if cur == ROOT_INO {
                    break;
                }
                let parent_inode = fs.read_inode(cur)?;
                cur = fs
                    .dir_find(cur, &parent_inode, "..")?
                    .ok_or(FsError::NotFound)?;
            }
        }
        fs.dir_remove(from_parent, &mut from_dir, from_name)?;
        let mut to_dir = fs.read_inode(to_parent)?;
        fs.dir_add(to_parent, &mut to_dir, to_name, ino)?;
        // Fix ".." when a directory changed parents.
        if from_parent != to_parent && fs.read_inode(ino)?.ftype == FileType::Dir {
            let mut child = fs.read_inode(ino)?;
            fs.dir_remove(ino, &mut child, "..")?;
            let mut child = fs.read_inode(ino)?;
            fs.dir_add(ino, &mut child, "..", to_parent)?;
        }
        Ok(())
    }

    /// Removes an empty directory.
    pub fn rmdir(&mut self, path_str: &str) -> Result<()> {
        let fs = &mut self.fs;
        fs.layout.charge_call();
        let (parent, name) = fs.lookup_parent(path_str)?;
        let mut dir = fs.read_inode(parent)?;
        let ino = fs.dir_find(parent, &dir, name)?.ok_or(FsError::NotFound)?;
        let inode = fs.read_inode(ino)?;
        if inode.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        if fs
            .readdir_ino(ino)?
            .iter()
            .any(|d| d.name != "." && d.name != "..")
        {
            return Err(FsError::NotEmpty);
        }
        fs.dirs.remove(&ino);
        fs.dir_remove(parent, &mut dir, name)?;
        Minix::free_blocks(fs, &inode, true)?;
        Minix::free_inode(fs, ino, false)
    }

    /// Lists a directory by path.
    pub fn readdir(&mut self, path_str: &str) -> Result<Vec<Dirent>> {
        self.fs.readdir(path_str)
    }

    /// Stats a file or directory.
    pub fn stat(&mut self, ino: Ino) -> Result<Stat> {
        self.fs.stat(ino)
    }

    /// Writes back all dirty state (cache, i-node bitmap) and syncs the
    /// store.
    pub fn sync(&mut self) -> Result<()> {
        self.fs.sync()
    }

    /// Syncs, then empties the buffer cache — used between benchmark
    /// phases ("we flushed the file cache before each phase", §4.2).
    pub fn drop_caches(&mut self) -> Result<()> {
        self.fs.drop_caches()
    }
}

#[cfg(test)]
mod tests;
