//! The namespace engine of the block-mapped file systems (`minix-fs` and
//! `ffs`): file management, generic over how blocks are placed.
//!
//! The paper's claim is that file management (naming, directories, file
//! data) need not care how blocks are laid out on disk (§4.1). [`Fs`] holds
//! that file management once: the path walk, the directory operations, the
//! 7 + 1 + 1 block-pointer walk, the buffer-cache touch path, the read and
//! write loops, and the [`ld_trace::Event::FsOp`] spans. A [`Layout`] holds
//! the disk management, which is all that differs between the two file
//! systems: the i-node codec and where i-nodes live, the allocation policy,
//! how dirty blocks are written back, whether metadata is written
//! synchronously, read-ahead, and the modelled CPU cost.

use std::collections::HashMap;

use ld_trace::{Event, FsOpKind, Tracer};

use crate::dirent::{self, DirIndex, DirSlot, Dirent, Located, Probe, DIRENT_SIZE};
use crate::{path, wire, BufferCache, Evicted, PathError};

/// A store address. `0` is never file data, so block pointers use it as
/// "none".
pub type Addr = u32;

/// An i-node number (1-based; 1 is the root directory).
pub type Ino = u32;

/// The root directory's i-node number.
pub const ROOT_INO: Ino = 1;

/// Bytes per encoded i-node.
pub const INODE_SIZE: usize = 64;

/// Direct block pointers per i-node.
const DIRECT: usize = 7;
/// Index of the indirect pointer.
pub const IND: usize = 7;
/// Index of the double-indirect pointer.
const DIND: usize = 8;
/// Block pointers per i-node.
pub const NPTRS: usize = 9;

/// Errors returned by the file systems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component or final target does not exist.
    NotFound,
    /// Target already exists (create/mkdir).
    Exists,
    /// A non-final path component is not a directory.
    NotDir,
    /// A file operation was applied to a directory (or vice versa).
    IsDir,
    /// Directory still has entries (rmdir).
    NotEmpty,
    /// Out of data blocks, or past the largest file size.
    NoSpace,
    /// Out of i-nodes.
    NoInodes,
    /// Malformed path.
    Path(PathError),
    /// The store rejected an operation or the medium failed.
    Store(String),
    /// The on-disk image is not a valid file system.
    BadSuperblock,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file or directory"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NotDir => write!(f, "not a directory"),
            FsError::IsDir => write!(f, "is a directory"),
            FsError::NotEmpty => write!(f, "directory not empty"),
            FsError::NoSpace => write!(f, "no space left on device"),
            FsError::NoInodes => write!(f, "no free i-nodes"),
            FsError::Path(e) => write!(f, "{e}"),
            FsError::Store(msg) => write!(f, "store error: {msg}"),
            FsError::BadSuperblock => write!(f, "not a valid file system image"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<PathError> for FsError {
    fn from(e: PathError) -> Self {
        FsError::Path(e)
    }
}

/// Result alias for file-system operations.
pub type Result<T> = std::result::Result<T, FsError>;

/// File type stored in an i-node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Dir,
}

impl FileType {
    /// The on-disk type code; 0 marks a free i-node.
    pub fn code(self) -> u16 {
        match self {
            FileType::Regular => 1,
            FileType::Dir => 2,
        }
    }

    /// Decodes a type code; `None` for a free i-node or an unknown code.
    pub fn from_code(code: u16) -> Option<Self> {
        match code {
            1 => Some(FileType::Regular),
            2 => Some(FileType::Dir),
            _ => None,
        }
    }
}

/// An in-memory i-node. Each [`Layout`] has its own on-disk encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inode {
    /// File type.
    pub ftype: FileType,
    /// File size in bytes.
    pub size: u64,
    /// Modification time (seconds of simulated time).
    pub mtime: u32,
    /// Allocation group: MINIX's LD list (list id + 1; 0 = the shared
    /// group), or FFS's cylinder group.
    pub group: u32,
    /// Block pointers; 0 = hole/unallocated.
    pub ptrs: [Addr; NPTRS],
}

impl Inode {
    /// A fresh, empty i-node.
    pub fn new(ftype: FileType, group: u32, mtime: u32) -> Self {
        Self {
            ftype,
            size: 0,
            mtime,
            group,
            ptrs: [0; NPTRS],
        }
    }
}

/// Metadata returned by [`Fs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// File type.
    pub ftype: FileType,
    /// Size in bytes.
    pub size: u64,
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
    /// Bytes read through [`Fs::read`].
    pub bytes_read: u64,
    /// Bytes written through [`Fs::write`].
    pub bytes_written: u64,
    /// Blocks pulled in by read-ahead.
    pub readahead_blocks: u64,
    /// Synchronous metadata writes issued.
    pub sync_meta_writes: u64,
    /// Write-back transfers issued (FFS clusters adjacent blocks into one).
    pub clustered_writes: u64,
}

/// Where a file block's pointer lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PtrPath {
    /// `ptrs[i]` directly.
    Direct(usize),
    /// Entry `i` of the indirect block.
    Indirect(usize),
    /// Entry `j` of indirect block `i` under the double-indirect block.
    Double(usize, usize),
}

/// Maps file block `idx` to its pointer, for `ppb` pointers per indirect
/// block; `None` past the double-indirect range.
pub fn ptr_path(idx: u64, ppb: usize) -> Option<PtrPath> {
    let d = DIRECT as u64;
    let p = ppb as u64;
    if idx < d {
        return Some(PtrPath::Direct(idx as usize));
    }
    let idx = idx - d;
    if idx < p {
        return Some(PtrPath::Indirect(idx as usize));
    }
    let idx = idx - p;
    (idx < p * p).then(|| PtrPath::Double((idx / p) as usize, (idx % p) as usize))
}

/// How a layout reads ahead after a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadAhead {
    /// No read-ahead.
    Off,
    /// Up to `n` following blocks in one [`Layout::read_blocks`] batch, so
    /// adjacent blocks coalesce (MINIX).
    Batch(u64),
    /// Up to `n` following blocks, each read through the cache (FFS).
    Each(u64),
}

/// Disk management under [`Fs`]: everything the two file systems do
/// differently.
///
/// Methods that take `fs: &mut Fs<Self>` reach the cache through the
/// engine; the rest see only the layout.
pub trait Layout: Sized {
    /// Whether directory blocks and i-nodes are written to the medium
    /// before create, mkdir and unlink return (FFS), rather than left to
    /// write-back (MINIX).
    const SYNC_META: bool = false;
    /// The largest file size the i-node encoding records.
    const MAX_SIZE: u64;

    /// Full block size in bytes.
    fn block_size(&self) -> usize;
    /// I-node count; valid numbers are `1..=ninodes`.
    fn ninodes(&self) -> u32;
    /// Encodes an i-node into its [`INODE_SIZE`]-byte slot.
    fn encode_inode(inode: &Inode, slot: &mut [u8]);
    /// Decodes a slot; `None` when it is free.
    fn decode_inode(slot: &[u8]) -> Option<Inode>;
    /// Where valid i-node `ino` lives: its block, the byte offset in it, and
    /// the block's allocated length.
    fn inode_slot(fs: &mut Fs<Self>, ino: Ino) -> Result<(Addr, usize, usize)>;

    /// Allocates an i-node for a new file of type `ftype` in directory
    /// `parent`, and returns it for the engine to fill and write.
    fn new_inode(fs: &mut Fs<Self>, parent: Ino, ftype: FileType) -> Result<(Ino, Inode)>;
    /// Allocates a block for `inode`, placed after its block `prev`.
    fn alloc_block(&mut self, inode: &Inode, prev: Option<Addr>) -> Result<Addr>;
    /// Frees an unlinked regular file: its blocks and its i-node.
    fn free_file(fs: &mut Fs<Self>, ino: Ino, inode: &Inode) -> Result<()>;
    /// Runs after create, mkdir and unlink have changed `ino`'s allocation.
    fn commit(_fs: &mut Fs<Self>, _ino: Ino) -> Result<()> {
        Ok(())
    }
    /// Writes back the dirty cache and the allocation state, then makes
    /// them durable.
    fn sync(fs: &mut Fs<Self>) -> Result<()>;

    /// Reads a block from the medium into `buf` (its allocated length),
    /// filling all of `buf`: bytes the medium does not hold for the block
    /// (a never-written block, or a short write) read as zero. `buf` comes
    /// with arbitrary bytes in it, left over from a recycled cache buffer.
    fn read_block(&mut self, addr: Addr, buf: &mut [u8]) -> Result<()>;
    /// Reads several full blocks in one batch ([`ReadAhead::Batch`]).
    fn read_blocks(&mut self, addrs: &[Addr]) -> Result<Vec<Vec<u8>>> {
        let bs = self.block_size();
        addrs
            .iter()
            .map(|&a| {
                let mut buf = vec![0u8; bs];
                self.read_block(a, &mut buf).map(|()| buf)
            })
            .collect()
    }
    /// Writes a block to the medium now.
    fn write_block(&mut self, addr: Addr, data: &[u8]) -> Result<()>;
    /// Writes dirty blocks back, evicted or synced; returns the transfers
    /// issued. The default writes one block at a time, in the given order.
    fn write_back(&mut self, blocks: Vec<Evicted>) -> Result<u64> {
        let n = blocks.len() as u64;
        // By value: each image is freed once written.
        for e in blocks {
            self.write_block(e.addr, &e.data)?;
        }
        Ok(n)
    }
    /// Dirty cache bytes at which a write flushes the cache.
    fn dirty_limit(&self) -> usize {
        usize::MAX
    }
    /// Read-ahead after a read; `sequential` when it continues the last one.
    fn readahead(&self, sequential: bool) -> ReadAhead;

    /// Charges the modelled CPU cost of one operation.
    fn charge_call(&mut self);
    /// Charges the modelled CPU cost of moving `n` blocks.
    fn charge_blocks(&mut self, _n: u64) {}
    /// Simulated clock (microseconds).
    fn now_us(&self) -> u64;
    /// The device's event tracer, if any.
    fn tracer(&self) -> Option<&Tracer>;
}

/// A file system: the engine over its layout.
pub struct Fs<L> {
    /// Disk management.
    pub layout: L,
    /// The write-back buffer cache.
    pub cache: BufferCache,
    /// Directory indexes by i-node. A directory has one from
    /// [`dir_init`](Fs::dir_init), or from the first scan that reads all its
    /// blocks.
    pub dirs: HashMap<Ino, DirIndex>,
    /// Operation counters.
    pub stats: FsStats,
    /// `(ino, last file-block index)` of the last read, for read-ahead.
    last_read: Option<(Ino, u64)>,
}

impl<L: Layout> Fs<L> {
    /// An engine over `layout` with a `cache_bytes` buffer cache.
    pub fn new(layout: L, cache_bytes: usize) -> Self {
        Self {
            layout,
            cache: BufferCache::new(cache_bytes),
            dirs: HashMap::new(),
            stats: FsStats::default(),
            last_read: None,
        }
    }

    /// Runs `f` inside an [`Event::FsOp`] span, recorded only if the device
    /// has a tracer. Tracing never advances the simulated clock.
    pub fn traced<R>(&mut self, op: FsOpKind, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = self.layout.tracer().map(|_| self.layout.now_us());
        let r = f(self);
        if let (Some(t), Some(start_us)) = (self.layout.tracer(), start) {
            let end = self.layout.now_us();
            t.record(
                end,
                Event::FsOp {
                    op,
                    start_us,
                    us: end - start_us,
                },
            );
        }
        r
    }

    /// The simulated time as an i-node timestamp.
    pub fn mtime_now(&self) -> u32 {
        (self.layout.now_us() / 1_000_000) as u32
    }

    /// The largest file size: the i-node's limit or the pointer range.
    fn max_size(&self) -> u64 {
        let bs = self.layout.block_size() as u64;
        let ppb = bs / 4;
        L::MAX_SIZE.min((DIRECT as u64 + ppb + ppb * ppb) * bs)
    }

    // ----- the buffer-cache touch path -----

    fn write_back(&mut self, blocks: Vec<Evicted>) -> Result<()> {
        self.stats.clustered_writes += self.layout.write_back(blocks)?;
        Ok(())
    }

    /// Writes every dirty cached block back.
    pub fn flush_dirty(&mut self) -> Result<()> {
        let dirty = self.cache.take_dirty();
        self.write_back(dirty)
    }

    /// Reads a block of allocated size `len` through the cache: a hit, or a
    /// read from the medium into a spare buffer and an insert.
    fn touch(&mut self, addr: Addr, len: usize) -> Result<()> {
        if self.cache.get(addr).is_none() {
            let mut buf = self.cache.spare(len);
            self.layout.read_block(addr, &mut buf)?;
            let evicted = self.cache.insert_clean(addr, buf);
            self.write_back(evicted)?;
        }
        Ok(())
    }

    /// Reads a block of allocated size `len` through the cache and returns
    /// its bytes: those of the most recently used block, which the touch
    /// has just made it.
    pub fn fetch(&mut self, addr: Addr, len: usize) -> Result<&[u8]> {
        self.touch(addr, len)?;
        self.cache.mru().ok_or_else(|| left_cache(addr))
    }

    /// A resident block's bytes, without touching recency or the counters.
    fn cached(&self, addr: Addr) -> Result<&[u8]> {
        self.cache.peek(addr).ok_or_else(|| left_cache(addr))
    }

    /// Changes a block of allocated size `len` in place through the cache,
    /// with the same hits, misses, recency and evictions as fetching a copy,
    /// changing it and [`save`](Self::save)-ing it back, but no copy.
    pub fn edit(&mut self, addr: Addr, len: usize, f: impl FnOnce(&mut [u8])) -> Result<()> {
        self.touch(addr, len)?;
        let block = self.cache.get_mut(addr).ok_or_else(|| left_cache(addr))?;
        f(block);
        self.cache.mark_dirty(addr);
        Ok(())
    }

    /// Stores a block image through the cache (write-back).
    pub fn save(&mut self, addr: Addr, data: Vec<u8>) -> Result<()> {
        let evicted = self.cache.insert_dirty(addr, data);
        self.write_back(evicted)
    }

    /// Stores a metadata block: [`save`](Self::save), or under
    /// [`Layout::SYNC_META`] a write to the medium that leaves the cached
    /// copy clean.
    pub fn save_meta(&mut self, addr: Addr, data: Vec<u8>) -> Result<()> {
        if !L::SYNC_META {
            return self.save(addr, data);
        }
        self.layout.write_block(addr, &data)?;
        let evicted = self.cache.insert_clean(addr, data);
        self.write_back(evicted)?;
        self.stats.sync_meta_writes += 1;
        Ok(())
    }

    // ----- i-nodes -----

    /// [`Layout::inode_slot`], for numbers in `1..=ninodes` only.
    fn slot(&mut self, ino: Ino) -> Result<(Addr, usize, usize)> {
        if ino == 0 || ino > self.layout.ninodes() {
            return Err(FsError::NotFound);
        }
        L::inode_slot(self, ino)
    }

    /// Reads an i-node.
    pub fn read_inode(&mut self, ino: Ino) -> Result<Inode> {
        let (addr, off, len) = self.slot(ino)?;
        L::decode_inode(&self.fetch(addr, len)?[off..off + INODE_SIZE]).ok_or(FsError::NotFound)
    }

    /// Writes an i-node back through the cache.
    pub fn write_inode(&mut self, ino: Ino, inode: &Inode) -> Result<()> {
        self.put_inode(ino, Some(inode), false)
    }

    /// Zeroes an i-node's slot, marking it free, as metadata.
    pub fn clear_inode(&mut self, ino: Ino) -> Result<()> {
        self.put_inode(ino, None, true)
    }

    fn put_inode(&mut self, ino: Ino, inode: Option<&Inode>, meta: bool) -> Result<()> {
        let (addr, off, len) = self.slot(ino)?;
        let put = |block: &mut [u8]| {
            let slot = &mut block[off..off + INODE_SIZE];
            match inode {
                Some(inode) => L::encode_inode(inode, slot),
                None => slot.fill(0),
            }
        };
        if !(meta && L::SYNC_META) {
            return self.edit(addr, len, put);
        }
        let mut block = self.fetch(addr, len)?.to_vec();
        put(&mut block);
        self.save_meta(addr, block)
    }

    // ----- the pointer walk -----

    /// Entry `i` of pointer block `table`.
    fn entry(&mut self, table: Addr, i: usize) -> Result<Option<Addr>> {
        let bs = self.layout.block_size();
        Ok(nonzero(wire::le_u32(self.fetch(table, bs)?, i * 4)))
    }

    /// Points entry `i` of pointer block `table` at `a`.
    fn set_entry(&mut self, table: Addr, i: usize, a: Addr) -> Result<()> {
        let bs = self.layout.block_size();
        self.edit(table, bs, |block| {
            block[i * 4..i * 4 + 4].copy_from_slice(&a.to_le_bytes())
        })
    }

    fn path_of(&self, idx: u64) -> Result<PtrPath> {
        ptr_path(idx, self.layout.block_size() / 4).ok_or(FsError::NoSpace)
    }

    /// The store address of file block `idx`, or `None` for a hole.
    fn block_at(&mut self, inode: &Inode, idx: u64) -> Result<Option<Addr>> {
        match self.path_of(idx)? {
            PtrPath::Direct(i) => Ok(nonzero(inode.ptrs[i])),
            PtrPath::Indirect(i) => match nonzero(inode.ptrs[IND]) {
                Some(ind) => self.entry(ind, i),
                None => Ok(None),
            },
            PtrPath::Double(i, j) => match nonzero(inode.ptrs[DIND]) {
                Some(dind) => match self.entry(dind, i)? {
                    Some(ind) => self.entry(ind, j),
                    None => Ok(None),
                },
                None => Ok(None),
            },
        }
    }

    /// The store address of file block `idx`, allocating it and any
    /// pointer block on the way, each after the file's previous block.
    fn block_alloc(&mut self, inode: &mut Inode, idx: u64) -> Result<Addr> {
        let prev = match idx {
            0 => None,
            _ => self.block_at(inode, idx - 1)?,
        };
        match self.path_of(idx)? {
            PtrPath::Direct(i) => match nonzero(inode.ptrs[i]) {
                Some(a) => Ok(a),
                None => {
                    inode.ptrs[i] = self.layout.alloc_block(inode, prev)?;
                    Ok(inode.ptrs[i])
                }
            },
            PtrPath::Indirect(i) => {
                let ind = self.top_table(inode, IND, prev)?;
                self.alloc_in_table(inode, ind, i, prev)
            }
            PtrPath::Double(i, j) => {
                let dind = self.top_table(inode, DIND, prev)?;
                let ind = match self.entry(dind, i)? {
                    Some(a) => a,
                    None => {
                        let a = self.new_table(inode, prev)?;
                        self.set_entry(dind, i, a)?;
                        a
                    }
                };
                self.alloc_in_table(inode, ind, j, prev)
            }
        }
    }

    /// The pointer block `inode.ptrs[k]`, allocated if absent.
    fn top_table(&mut self, inode: &mut Inode, k: usize, prev: Option<Addr>) -> Result<Addr> {
        if let Some(a) = nonzero(inode.ptrs[k]) {
            return Ok(a);
        }
        inode.ptrs[k] = self.new_table(inode, prev)?;
        Ok(inode.ptrs[k])
    }

    /// Allocates a zeroed pointer block.
    fn new_table(&mut self, inode: &Inode, prev: Option<Addr>) -> Result<Addr> {
        let a = self.layout.alloc_block(inode, prev)?;
        self.save(a, vec![0u8; self.layout.block_size()])?;
        Ok(a)
    }

    /// Entry `i` of pointer block `table`, allocated if absent.
    fn alloc_in_table(
        &mut self,
        inode: &Inode,
        table: Addr,
        i: usize,
        prev: Option<Addr>,
    ) -> Result<Addr> {
        if let Some(a) = self.entry(table, i)? {
            return Ok(a);
        }
        let a = self.layout.alloc_block(inode, prev)?;
        self.set_entry(table, i, a)?;
        Ok(a)
    }

    /// Every allocated block of a file, in allocation order: data blocks
    /// interleaved with the pointer blocks that precede their first use.
    pub fn collect_blocks(&mut self, inode: &Inode) -> Result<Vec<Addr>> {
        let nblocks = inode.size.div_ceil(self.layout.block_size() as u64);
        let mut out = Vec::new();
        let (mut seen_ind, mut seen_dind, mut seen_sub) = (false, false, None);
        for idx in 0..nblocks {
            match self.path_of(idx)? {
                PtrPath::Direct(_) => {}
                PtrPath::Indirect(_) => {
                    if !seen_ind {
                        seen_ind = true;
                        out.extend(nonzero(inode.ptrs[IND]));
                    }
                }
                PtrPath::Double(i, _) => {
                    if !seen_dind {
                        seen_dind = true;
                        out.extend(nonzero(inode.ptrs[DIND]));
                    }
                    if seen_sub != Some(i) {
                        seen_sub = Some(i);
                        if let Some(dind) = nonzero(inode.ptrs[DIND]) {
                            out.extend(self.entry(dind, i)?);
                        }
                    }
                }
            }
            out.extend(self.block_at(inode, idx)?);
        }
        Ok(out)
    }

    // ----- directories -----
    //
    // MINIX scans a directory block by block (`dirent::locate`). An indexed
    // directory still reads each block the scan reads, in the same order,
    // but compares no bytes, and leaves out the indirect-block touches a
    // later one repeats (`dir_block`). Each operation takes the index out
    // of `dirs` and puts it back only on success, so an error part-way
    // drops it and the next scan that reads every block rebuilds it.

    /// Writes the initial "." and ".." entries of a new directory and
    /// indexes them.
    pub fn dir_init(&mut self, ino: Ino, inode: &mut Inode, parent: Ino) -> Result<()> {
        let bs = self.layout.block_size();
        let a = self.block_alloc(inode, 0)?;
        let mut block = vec![0u8; bs];
        dirent::encode(ino, ".", &mut block[0..DIRENT_SIZE]);
        dirent::encode(parent, "..", &mut block[DIRENT_SIZE..2 * DIRENT_SIZE]);
        let mut index = DirIndex::default();
        index.add_block(0, &block);
        self.save_meta(a, block)?;
        self.dirs.insert(ino, index);
        inode.size = bs as u64;
        // A synchronously written directory keeps its creation time.
        if !L::SYNC_META {
            inode.mtime = self.mtime_now();
        }
        Ok(())
    }

    /// Runs the scan of directory `dir_ino` for `probe`, with its index
    /// taken out of `dirs`.
    fn dir_locate(&mut self, dir_ino: Ino, dir: &Inode, probe: Probe<'_>) -> Result<Located> {
        let bs = self.layout.block_size();
        let index = self.dirs.remove(&dir_ino);
        dirent::locate(
            dir.size.div_ceil(bs as u64),
            probe,
            index,
            |idx, last, look| {
                let Some(a) = self.dir_block(dir, idx, last)? else {
                    return Ok(None);
                };
                let block = self.fetch(a, bs)?;
                if let Some(look) = look {
                    look(block);
                }
                Ok(Some(a))
            },
        )
    }

    /// [`block_at`](Self::block_at) for block `idx` of a directory scan
    /// that reads block `idx + 1` next unless `last`.
    ///
    /// In the single-indirect range the walk touches the indirect block
    /// before each directory block. When the scan goes on to a block mapped
    /// by the same indirect block, and both it and the block it maps here
    /// are resident, this leaves that touch out: it reads the pointer with
    /// a peek and counts the hit. Nothing is inserted before the next
    /// block's walk, which touches the indirect block for real before any
    /// miss and before the scan's last block, so every eviction, the final
    /// recency order and the counters are those of the eager walk.
    fn dir_block(&mut self, dir: &Inode, idx: u64, last: bool) -> Result<Option<Addr>> {
        let ppb = self.layout.block_size() / 4;
        let lazy = match (last, self.path_of(idx)?) {
            (false, PtrPath::Indirect(i)) if i + 1 < ppb => nonzero(dir.ptrs[IND])
                .and_then(|ind| self.cache.peek(ind))
                .map(|table| nonzero(wire::le_u32(table, i * 4))),
            _ => None,
        };
        match lazy {
            Some(a) if a.is_none_or(|a| self.cache.contains(a)) => {
                self.cache.count_hit();
                Ok(a)
            }
            _ => self.block_at(dir, idx),
        }
    }

    /// Puts a directory's index back once its operation has succeeded.
    fn dir_keep(&mut self, dir_ino: Ino, index: Option<DirIndex>) {
        if let Some(index) = index {
            self.dirs.insert(dir_ino, index);
        }
    }

    /// Finds `name` in directory `dir_ino`.
    pub fn dir_find(&mut self, dir_ino: Ino, dir: &Inode, name: &str) -> Result<Option<Ino>> {
        let Located { stop, index } = self.dir_locate(dir_ino, dir, Probe::Name(name))?;
        self.dir_keep(dir_ino, index);
        Ok(stop.map(|(_, at)| at.ino))
    }

    /// Adds an entry, reusing a free slot or extending the directory.
    pub fn dir_add(&mut self, dir_ino: Ino, dir: &mut Inode, name: &str, ino: Ino) -> Result<()> {
        let bs = self.layout.block_size();
        let Located { stop, mut index } = self.dir_locate(dir_ino, dir, Probe::Free)?;
        let (a, at, mut block) = match stop {
            Some((a, at)) => (a, at, self.cached(a)?.to_vec()),
            None => {
                // Extend by one block.
                let idx = dir.size.div_ceil(bs as u64);
                let a = self.block_alloc(dir, idx)?;
                let block = vec![0u8; bs];
                if let Some(ix) = &mut index {
                    ix.add_block(idx, &block);
                }
                dir.size += bs as u64;
                let at = DirSlot {
                    block: idx,
                    slot: 0,
                    ino: 0,
                };
                (a, at, block)
            }
        };
        dirent::encode(ino, name, slot_of(&mut block, at));
        if let Some(ix) = &mut index {
            ix.fill(at, name, ino);
        }
        self.dir_save(dir_ino, dir, a, block, index)
    }

    /// Removes an entry; errors with [`FsError::NotFound`] if absent.
    pub fn dir_remove(&mut self, dir_ino: Ino, dir: &mut Inode, name: &str) -> Result<Ino> {
        let Located { stop, mut index } = self.dir_locate(dir_ino, dir, Probe::Name(name))?;
        let Some((a, at)) = stop else {
            self.dir_keep(dir_ino, index);
            return Err(FsError::NotFound);
        };
        let mut block = self.cached(a)?.to_vec();
        dirent::clear(slot_of(&mut block, at));
        if let Some(ix) = &mut index {
            ix.clear(at, name);
        }
        self.dir_save(dir_ino, dir, a, block, index)?;
        Ok(at.ino)
    }

    /// Writes a changed directory block and the directory's i-node, and
    /// keeps its index.
    fn dir_save(
        &mut self,
        dir_ino: Ino,
        dir: &mut Inode,
        a: Addr,
        block: Vec<u8>,
        index: Option<DirIndex>,
    ) -> Result<()> {
        self.save_meta(a, block)?;
        dir.mtime = self.mtime_now();
        self.put_inode(dir_ino, Some(dir), true)?;
        self.dir_keep(dir_ino, index);
        Ok(())
    }

    /// Lists directory `ino`.
    pub fn readdir_ino(&mut self, ino: Ino) -> Result<Vec<Dirent>> {
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        let bs = self.layout.block_size();
        let mut out = Vec::new();
        for idx in 0..inode.size.div_ceil(bs as u64) {
            let Some(a) = self.block_at(&inode, idx)? else {
                continue;
            };
            out.extend(dirent::iter_block(self.fetch(a, bs)?).map(|(_, d)| d));
        }
        Ok(out)
    }

    // ----- the path walk -----

    fn walk<'p>(&mut self, comps: impl IntoIterator<Item = &'p str>) -> Result<Ino> {
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

    /// Resolves a path to its i-node.
    pub fn lookup(&mut self, path_str: &str) -> Result<Ino> {
        self.traced(FsOpKind::Lookup, |fs| fs.walk(path::split(path_str)?))
    }

    /// Resolves a path's parent directory; returns it with the final name.
    pub fn lookup_parent<'p>(&mut self, path_str: &'p str) -> Result<(Ino, &'p str)> {
        let (comps, name) = path::split_parent(path_str)?;
        Ok((self.walk(comps)?, name))
    }

    // ----- public operations -----

    /// Creates an empty regular file.
    pub fn create(&mut self, path_str: &str) -> Result<Ino> {
        self.traced(FsOpKind::Create, |fs| fs.make(path_str, FileType::Regular))
    }

    /// Creates a directory.
    pub fn mkdir(&mut self, path_str: &str) -> Result<Ino> {
        self.traced(FsOpKind::Mkdir, |fs| fs.make(path_str, FileType::Dir))
    }

    fn make(&mut self, path_str: &str, ftype: FileType) -> Result<Ino> {
        self.layout.charge_call();
        let (parent, name) = self.lookup_parent(path_str)?;
        let mut dir = self.read_inode(parent)?;
        if dir.ftype != FileType::Dir {
            return Err(FsError::NotDir);
        }
        if self.dir_find(parent, &dir, name)?.is_some() {
            return Err(FsError::Exists);
        }
        let (ino, mut inode) = L::new_inode(self, parent, ftype)?;
        if ftype == FileType::Dir {
            self.dir_init(ino, &mut inode, parent)?;
        }
        self.put_inode(ino, Some(&inode), true)?;
        self.dir_add(parent, &mut dir, name, ino)?;
        L::commit(self, ino)?;
        if ftype == FileType::Regular {
            self.stats.creates += 1;
        }
        Ok(ino)
    }

    /// Writes `data` at byte `offset` of the file, extending it as needed.
    /// A write that would end past the largest file size fails with
    /// [`FsError::NoSpace`] before it allocates anything.
    pub fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.traced(FsOpKind::Write, |fs| fs.write_inner(ino, offset, data))
    }

    fn write_inner(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        self.layout.charge_call();
        let mut inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::IsDir);
        }
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&end| end <= self.max_size())
            .ok_or(FsError::NoSpace)?;
        let bs = self.layout.block_size();
        let mut pos = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let idx = pos / bs as u64;
            let inner = (pos % bs as u64) as usize;
            let n = rest.len().min(bs - inner);
            let a = self.block_alloc(&mut inode, idx)?;
            if n == bs {
                let block = self.cache.spare_copy(&rest[..n]);
                self.save(a, block)?;
            } else {
                self.edit(a, bs, |block| {
                    block[inner..inner + n].copy_from_slice(&rest[..n])
                })?;
            }
            pos += n as u64;
            rest = &rest[n..];
        }
        inode.size = inode.size.max(end);
        inode.mtime = self.mtime_now();
        self.write_inode(ino, &inode)?;
        self.stats.bytes_written += data.len() as u64;
        self.layout.charge_blocks(data.len().div_ceil(bs) as u64);
        if self.cache.dirty_bytes() >= self.layout.dirty_limit() {
            self.flush_dirty()?;
        }
        Ok(())
    }

    /// Reads up to `buf.len()` bytes at `offset`; returns the byte count.
    pub fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.traced(FsOpKind::Read, |fs| fs.read_inner(ino, offset, buf))
    }

    fn read_inner(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        self.layout.charge_call();
        let inode = self.read_inode(ino)?;
        let bs = self.layout.block_size();
        if offset >= inode.size {
            return Ok(0);
        }
        let want = (buf.len() as u64).min(inode.size - offset) as usize;
        let mut done = 0usize;
        let mut pos = offset;
        let mut last_idx = offset / bs as u64;
        while done < want {
            let idx = pos / bs as u64;
            let inner = (pos % bs as u64) as usize;
            let n = (want - done).min(bs - inner);
            match self.block_at(&inode, idx)? {
                Some(a) => {
                    let block = self.fetch(a, bs)?;
                    buf[done..done + n].copy_from_slice(&block[inner..inner + n]);
                }
                None => buf[done..done + n].fill(0),
            }
            last_idx = idx;
            pos += n as u64;
            done += n;
        }
        let sequential = offset == 0
            || self
                .last_read
                .is_some_and(|(i, b)| i == ino && offset / bs as u64 == b + 1);
        self.read_ahead(&inode, last_idx, sequential)?;
        self.last_read = Some((ino, last_idx));
        self.stats.bytes_read += done as u64;
        self.layout.charge_blocks(done.div_ceil(bs) as u64);
        Ok(done)
    }

    /// Reads ahead of file block `last_idx`, as the layout asks.
    fn read_ahead(&mut self, inode: &Inode, last_idx: u64, sequential: bool) -> Result<()> {
        let (n, batch) = match self.layout.readahead(sequential) {
            ReadAhead::Off => return Ok(()),
            ReadAhead::Batch(n) => (n, true),
            ReadAhead::Each(n) => (n, false),
        };
        let bs = self.layout.block_size();
        let last = inode.size.div_ceil(bs as u64).saturating_sub(1);
        let mut prefetch = Vec::new();
        for k in last_idx + 1..=(last_idx + n).min(last) {
            let Some(a) = self.block_at(inode, k)? else {
                continue;
            };
            if self.cache.contains(a) {
                continue;
            }
            if batch {
                prefetch.push(a);
            } else {
                self.touch(a, bs)?;
                self.stats.readahead_blocks += 1;
            }
        }
        if prefetch.is_empty() {
            return Ok(());
        }
        let blocks = self.layout.read_blocks(&prefetch)?;
        for (a, data) in prefetch.into_iter().zip(blocks) {
            let evicted = self.cache.insert_clean(a, data);
            self.write_back(evicted)?;
            self.stats.readahead_blocks += 1;
        }
        Ok(())
    }

    /// Removes a regular file.
    pub fn unlink(&mut self, path_str: &str) -> Result<()> {
        self.traced(FsOpKind::Unlink, |fs| fs.unlink_inner(path_str))
    }

    fn unlink_inner(&mut self, path_str: &str) -> Result<()> {
        self.layout.charge_call();
        let (parent, name) = self.lookup_parent(path_str)?;
        let mut dir = self.read_inode(parent)?;
        let ino = self
            .dir_find(parent, &dir, name)?
            .ok_or(FsError::NotFound)?;
        let inode = self.read_inode(ino)?;
        if inode.ftype != FileType::Regular {
            return Err(FsError::IsDir);
        }
        self.dir_remove(parent, &mut dir, name)?;
        L::free_file(self, ino, &inode)?;
        L::commit(self, ino)?;
        self.stats.unlinks += 1;
        Ok(())
    }

    /// Lists a directory by path.
    pub fn readdir(&mut self, path_str: &str) -> Result<Vec<Dirent>> {
        self.layout.charge_call();
        let ino = self.lookup(path_str)?;
        self.readdir_ino(ino)
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

    /// Writes back all dirty state and makes it durable.
    pub fn sync(&mut self) -> Result<()> {
        self.traced(FsOpKind::Sync, |fs| {
            fs.layout.charge_call();
            L::sync(fs)
        })
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

/// The error for a block the cache should hold but does not.
fn left_cache(addr: Addr) -> FsError {
    FsError::Store(format!("block {addr} left the cache"))
}

/// The bytes of directory slot `at` in its block.
fn slot_of(block: &mut [u8], at: DirSlot) -> &mut [u8] {
    &mut block[at.slot * DIRENT_SIZE..(at.slot + 1) * DIRENT_SIZE]
}
