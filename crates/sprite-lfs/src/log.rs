//! The log-structured core: segments, i-node map, checkpoints and
//! roll-forward recovery.

use std::collections::{BTreeMap, BTreeSet};

use fsutil::dirent::{self, Probe, DIRENT_SIZE};
use fsutil::wire;
use simdisk::{BlockDev, SECTOR_SIZE};

use crate::fsops::{LfsError, Result};

/// File-system block size (4 KB, as in the paper's comparison).
pub const BLOCK: usize = 4096;
const SECTORS_PER_BLOCK: u64 = (BLOCK / SECTOR_SIZE) as u64;
/// Encoded i-node size; 32 i-nodes share an i-node block.
const INODE_BYTES: usize = 128;
const INODES_PER_BLOCK: usize = BLOCK / INODE_BYTES;
/// I-map entries per i-map block.
const IMAP_PER_BLOCK: usize = BLOCK / 4;
/// Direct pointers per i-node.
const NDIRECT: usize = 10;
/// Pointers per indirect block.
const PPB: usize = BLOCK / 4;

/// Root directory i-node.
pub const ROOT_INO: u32 = 0;

const SUMMARY_MAGIC: u32 = 0x4C46_5353;
const CKPT_MAGIC: u32 = 0x4C46_4350;

/// Table identifiers for indirect blocks (see summary entries).
const TABLE_IND: u32 = u32::MAX;
const TABLE_DIND_TOP: u32 = u32::MAX - 1;

/// Configuration.
#[derive(Debug, Clone)]
pub struct LfsConfig {
    /// Blocks per segment (including the summary block).
    pub segment_blocks: u32,
    /// Maximum i-nodes.
    pub ninodes: u32,
}

impl Default for LfsConfig {
    fn default() -> Self {
        Self {
            segment_blocks: 128, // 512 KB segments, like the evaluation.
            ninodes: 16384,
        }
    }
}

impl LfsConfig {
    /// Small configuration for unit tests.
    pub fn small_for_tests() -> Self {
        Self {
            segment_blocks: 16,
            ninodes: 512,
        }
    }
}

/// Blocks written, split by category — the measurement behind Table 6.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WriteCounters {
    /// File/directory data blocks.
    pub data_blocks: u64,
    /// Packed i-node blocks (each holds up to 32 dirty i-nodes).
    pub inode_blocks: u64,
    /// Indirect and double-indirect blocks (the cascading updates LD
    /// avoids).
    pub indirect_blocks: u64,
    /// I-node-map blocks (written at checkpoints).
    pub imap_blocks: u64,
    /// Segment summary blocks.
    pub summary_blocks: u64,
    /// Whole segments written.
    pub segments_written: u64,
    /// Dirty i-nodes flushed (the numerator of ε).
    pub dirty_inodes_flushed: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ftype {
    Regular,
    Dir,
}

#[derive(Debug, Clone, Copy)]
struct Inode {
    ftype: Ftype,
    size: u64,
    /// 10 direct, then indirect, then double-indirect (physical addrs!).
    ptrs: [u32; NDIRECT + 2],
}

impl Inode {
    fn new(ftype: Ftype) -> Self {
        Self {
            ftype,
            size: 0,
            ptrs: [0; NDIRECT + 2],
        }
    }

    fn encode(&self, ino: u32, slot: &mut [u8]) {
        slot.fill(0);
        let t: u16 = match self.ftype {
            Ftype::Regular => 1,
            Ftype::Dir => 2,
        };
        slot[0..2].copy_from_slice(&t.to_le_bytes());
        slot[4..8].copy_from_slice(&ino.to_le_bytes());
        slot[8..16].copy_from_slice(&self.size.to_le_bytes());
        for (i, p) in self.ptrs.iter().enumerate() {
            slot[16 + 4 * i..20 + 4 * i].copy_from_slice(&p.to_le_bytes());
        }
    }

    fn decode(slot: &[u8]) -> Option<Self> {
        let t = wire::le_u16(slot, 0);
        let ftype = match t {
            1 => Ftype::Regular,
            2 => Ftype::Dir,
            _ => return None,
        };
        let mut ptrs = [0u32; NDIRECT + 2];
        for (i, p) in ptrs.iter_mut().enumerate() {
            *p = wire::le_u32(slot, 16 + 4 * i);
        }
        Some(Self {
            ftype,
            size: wire::le_u64(slot, 8),
            ptrs,
        })
    }
}

/// What a block in the open segment is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Data { ino: u32, idx: u32 },
    InodeBlock,
    Imap { blk: u32 },
    Indirect { ino: u32, table: u32 },
}

/// Logged directory-operation records (make deletes recoverable between
/// checkpoints; Sprite used a directory operation log for the same
/// reason).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpLog {
    Delete { ino: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegState {
    Free,
    Live,
}

/// The Sprite-LFS-style storage manager.
pub struct SpriteLfs<D: BlockDev> {
    disk: D,
    config: LfsConfig,
    nsegs: u32,
    /// Per-segment state.
    seg_state: Vec<SegState>,
    /// Open segment: assigned id and pending blocks.
    open_seg: u32,
    open: Vec<(Kind, Vec<u8>)>,
    open_ops: Vec<OpLog>,
    /// I-node map: `ino -> inode slot address` (`block_addr * 32 + slot + 1`,
    /// 0 = free).
    imap: Vec<u32>,
    /// Current disk address of each i-map block (0 = never written).
    imap_addr: Vec<u32>,
    imap_dirty: BTreeSet<u32>,
    /// I-nodes modified since the last segment flush.
    dirty_inodes: BTreeMap<u32, Inode>,
    /// Indirect blocks modified since the last flush: `(ino, table) ->
    /// entries`.
    dirty_tables: BTreeMap<(u32, u32), Vec<u32>>,
    seq: u64,
    /// Which checkpoint region (block 0 or 1) the next checkpoint uses.
    ckpt_flip: bool,
    counters: WriteCounters,
}

impl<D: BlockDev> SpriteLfs<D> {
    // ----- construction -----

    /// Formats the device and creates the root directory.
    pub fn format(mut disk: D, config: LfsConfig) -> Result<Self> {
        let nsegs = Self::segment_count(&disk, &config)?;
        // Invalidate both checkpoint regions and every summary block.
        let zero = vec![0u8; BLOCK];
        disk.write_sectors(0, &zero).map_err(io_err)?;
        disk.write_sectors(SECTORS_PER_BLOCK, &zero)
            .map_err(io_err)?;
        for s in 0..nsegs {
            let addr = 2 + u64::from(s) * u64::from(config.segment_blocks);
            disk.write_sectors(addr * SECTORS_PER_BLOCK, &zero[..SECTOR_SIZE])
                .map_err(io_err)?;
        }
        let nimap = (config.ninodes as usize).div_ceil(IMAP_PER_BLOCK);
        let mut lfs = Self {
            disk,
            nsegs,
            seg_state: vec![SegState::Free; nsegs as usize],
            open_seg: 0,
            open: Vec::new(),
            open_ops: Vec::new(),
            imap: vec![0; config.ninodes as usize],
            imap_addr: vec![0; nimap],
            imap_dirty: BTreeSet::new(),
            dirty_inodes: BTreeMap::new(),
            dirty_tables: BTreeMap::new(),
            seq: 1,
            ckpt_flip: false,
            counters: WriteCounters::default(),
            config,
        };
        lfs.seg_state[0] = SegState::Live;
        // Root directory (empty).
        lfs.dirty_inodes.insert(ROOT_INO, Inode::new(Ftype::Dir));
        lfs.imap[ROOT_INO as usize] = u32::MAX; // Allocated, address pending.
        lfs.checkpoint()?;
        Ok(lfs)
    }

    fn segment_count(disk: &D, config: &LfsConfig) -> Result<u32> {
        let blocks = disk.capacity_bytes() / BLOCK as u64;
        let nsegs = (blocks.saturating_sub(2)) / u64::from(config.segment_blocks);
        if nsegs < 3 {
            return Err(LfsError::NoSpace);
        }
        Ok(nsegs as u32)
    }

    // ----- accessors -----

    /// The write counters.
    pub fn counters(&self) -> &WriteCounters {
        &self.counters
    }

    /// Resets the counters.
    pub fn reset_counters(&mut self) {
        self.counters = WriteCounters::default();
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

    // ----- address math -----

    fn seg_base(&self, seg: u32) -> u32 {
        2 + seg * self.config.segment_blocks
    }

    fn open_base(&self) -> u32 {
        self.seg_base(self.open_seg)
    }

    /// Address the next appended block will get.
    fn next_addr(&self) -> u32 {
        self.open_base() + 1 + self.open.len() as u32
    }

    // ----- raw I/O -----

    fn read_phys(&mut self, addr: u32, buf: &mut [u8]) -> Result<()> {
        // Blocks still in the open segment are served from memory.
        let base = self.open_base();
        if addr > base && addr <= base + self.open.len() as u32 {
            buf.copy_from_slice(&self.open[(addr - base - 1) as usize].1);
            return Ok(());
        }
        self.disk
            .read_sectors(u64::from(addr) * SECTORS_PER_BLOCK, buf)
            .map_err(io_err)
    }

    // ----- the open segment -----

    fn append(&mut self, kind: Kind, data: Vec<u8>) -> Result<u32> {
        debug_assert_eq!(data.len(), BLOCK);
        if self.open.len() as u32 + 1 >= self.config.segment_blocks {
            self.write_segment()?;
        }
        let addr = self.next_addr();
        self.open.push((kind, data));
        Ok(addr)
    }

    /// Flushes dirty metadata into the log and writes the open segment —
    /// the durability point (Sprite's segment write / LD's `Flush`).
    pub fn flush(&mut self) -> Result<()> {
        self.flush_tables()?;
        self.flush_inodes()?;
        self.write_segment()
    }

    /// Writes the open segment image (summary first) and opens a fresh
    /// one. Does not touch dirty metadata; [`flush`](Self::flush) does.
    fn write_segment(&mut self) -> Result<()> {
        if self.open.is_empty() && self.open_ops.is_empty() {
            return Ok(());
        }
        // Build the segment image: summary block + blocks.
        let seq = self.seq;
        self.seq += 1;
        let mut body = Vec::with_capacity((1 + self.open.len()) * BLOCK);
        body.extend_from_slice(&vec![0u8; BLOCK]); // Summary placeholder.
        for (_, data) in &self.open {
            body.extend_from_slice(data);
        }
        let mut summary = Vec::with_capacity(BLOCK);
        summary.extend_from_slice(&SUMMARY_MAGIC.to_le_bytes());
        summary.extend_from_slice(&(self.open.len() as u32).to_le_bytes());
        summary.extend_from_slice(&seq.to_le_bytes());
        summary.extend_from_slice(&(self.open_ops.len() as u32).to_le_bytes());
        for (kind, _) in &self.open {
            match kind {
                Kind::Data { ino, idx } => {
                    summary.push(0);
                    summary.extend_from_slice(&ino.to_le_bytes());
                    summary.extend_from_slice(&idx.to_le_bytes());
                }
                Kind::InodeBlock => {
                    summary.push(1);
                    summary.extend_from_slice(&[0u8; 8]);
                }
                Kind::Imap { blk } => {
                    summary.push(2);
                    summary.extend_from_slice(&blk.to_le_bytes());
                    summary.extend_from_slice(&[0u8; 4]);
                }
                Kind::Indirect { ino, table } => {
                    summary.push(3);
                    summary.extend_from_slice(&ino.to_le_bytes());
                    summary.extend_from_slice(&table.to_le_bytes());
                }
            }
        }
        for op in &self.open_ops {
            match op {
                OpLog::Delete { ino } => {
                    summary.push(1);
                    summary.extend_from_slice(&ino.to_le_bytes());
                }
            }
        }
        // Checksum over the summary body and all block payloads, so a torn
        // segment write is detected.
        let mut hashed = summary.clone();
        hashed.extend_from_slice(&body[BLOCK..]);
        summary.extend_from_slice(&wire::fnv1a64(&hashed).to_le_bytes());
        assert!(summary.len() <= BLOCK, "summary overflow");
        summary.resize(BLOCK, 0);
        body[..BLOCK].copy_from_slice(&summary);

        let base = self.open_base();
        self.disk
            .write_sectors(u64::from(base) * SECTORS_PER_BLOCK, &body)
            .map_err(io_err)?;

        // Count by category.
        self.counters.summary_blocks += 1;
        self.counters.segments_written += 1;
        for (kind, _) in &self.open {
            match kind {
                Kind::Data { .. } => self.counters.data_blocks += 1,
                Kind::InodeBlock => self.counters.inode_blocks += 1,
                Kind::Imap { .. } => self.counters.imap_blocks += 1,
                Kind::Indirect { .. } => self.counters.indirect_blocks += 1,
            }
        }

        self.open.clear();
        self.open_ops.clear();
        // Pick the next free segment.
        let next = self
            .seg_state
            .iter()
            .position(|s| *s == SegState::Free)
            .ok_or(LfsError::NoSpace)? as u32;
        self.seg_state[next as usize] = SegState::Live;
        self.open_seg = next;
        Ok(())
    }

    /// Writes dirty indirect tables into the open segment, cascading the
    /// new addresses upward — the cost LD-based systems avoid.
    fn flush_tables(&mut self) -> Result<()> {
        // Pass 1: double-indirect leaves (their new addresses go into the
        // top table). Pass 2: top tables and single indirect blocks (their
        // addresses go into i-nodes).
        for pass in 0..2 {
            let keys: Vec<(u32, u32)> = self
                .dirty_tables
                .keys()
                .copied()
                .filter(|(_, t)| {
                    if pass == 0 {
                        *t < TABLE_DIND_TOP
                    } else {
                        *t >= TABLE_DIND_TOP
                    }
                })
                .collect();
            for (ino, table) in keys {
                let content = self.dirty_tables.remove(&(ino, table)).expect("listed"); // PANIC-OK: the key comes from the snapshot being iterated
                let mut block = vec![0u8; BLOCK];
                for (i, e) in content.iter().enumerate() {
                    block[4 * i..4 * i + 4].copy_from_slice(&e.to_le_bytes());
                }
                let addr = self.append(Kind::Indirect { ino, table }, block)?;
                match table {
                    TABLE_IND => self.inode_mut(ino)?.ptrs[NDIRECT] = addr,
                    TABLE_DIND_TOP => self.inode_mut(ino)?.ptrs[NDIRECT + 1] = addr,
                    sub => {
                        // Update (and dirty) the top table.
                        let mut top = self.load_table(ino, TABLE_DIND_TOP)?;
                        top[sub as usize] = addr;
                        self.dirty_tables.insert((ino, TABLE_DIND_TOP), top);
                    }
                }
            }
        }
        Ok(())
    }

    /// Packs dirty i-nodes into shared i-node blocks (the reason a dirty
    /// i-node costs only ε).
    fn flush_inodes(&mut self) -> Result<()> {
        let dirty: Vec<(u32, Inode)> = std::mem::take(&mut self.dirty_inodes).into_iter().collect();
        for chunk in dirty.chunks(INODES_PER_BLOCK) {
            let mut block = vec![0u8; BLOCK];
            for (slot, (ino, inode)) in chunk.iter().enumerate() {
                inode.encode(
                    *ino,
                    &mut block[slot * INODE_BYTES..(slot + 1) * INODE_BYTES],
                );
            }
            let addr = self.append(Kind::InodeBlock, block)?;
            for (slot, (ino, _)) in chunk.iter().enumerate() {
                self.imap[*ino as usize] = addr * INODES_PER_BLOCK as u32 + slot as u32 + 1;
                self.imap_dirty.insert(*ino / IMAP_PER_BLOCK as u32);
                self.counters.dirty_inodes_flushed += 1;
            }
        }
        Ok(())
    }

    // ----- i-node access -----

    fn inode_mut(&mut self, ino: u32) -> Result<&mut Inode> {
        if !self.dirty_inodes.contains_key(&ino) {
            let inode = self.load_inode(ino)?;
            self.dirty_inodes.insert(ino, inode);
        }
        Ok(self.dirty_inodes.get_mut(&ino).expect("just inserted")) // PANIC-OK: inserted by the branch above
    }

    fn load_inode(&mut self, ino: u32) -> Result<Inode> {
        if let Some(i) = self.dirty_inodes.get(&ino) {
            return Ok(*i);
        }
        let entry = *self.imap.get(ino as usize).ok_or(LfsError::NotFound)?;
        if entry == 0 {
            return Err(LfsError::NotFound);
        }
        if entry == u32::MAX {
            // Allocated but never flushed and not dirty: impossible.
            return Err(LfsError::NotFound);
        }
        let addr = (entry - 1) / INODES_PER_BLOCK as u32;
        let slot = ((entry - 1) % INODES_PER_BLOCK as u32) as usize;
        let mut block = vec![0u8; BLOCK];
        self.read_phys(addr, &mut block)?;
        Inode::decode(&block[slot * INODE_BYTES..(slot + 1) * INODE_BYTES])
            .ok_or(LfsError::NotFound)
    }

    // ----- block mapping -----

    fn load_table(&mut self, ino: u32, table: u32) -> Result<Vec<u32>> {
        if let Some(t) = self.dirty_tables.get(&(ino, table)) {
            return Ok(t.clone());
        }
        let inode = self.load_inode(ino)?;
        let addr = match table {
            TABLE_IND => inode.ptrs[NDIRECT],
            TABLE_DIND_TOP => inode.ptrs[NDIRECT + 1],
            sub => {
                let top = self.load_table(ino, TABLE_DIND_TOP)?;
                top[sub as usize]
            }
        };
        if addr == 0 {
            return Ok(vec![0u32; PPB]);
        }
        let mut block = vec![0u8; BLOCK];
        self.read_phys(addr, &mut block)?;
        Ok((0..PPB)
            .map(|i| wire::le_u32(&block, 4 * i))
            .collect())
    }

    fn block_addr(&mut self, ino: u32, idx: u64) -> Result<u32> {
        let inode = self.load_inode(ino)?;
        if idx < NDIRECT as u64 {
            return Ok(inode.ptrs[idx as usize]);
        }
        let idx = idx - NDIRECT as u64;
        if idx < PPB as u64 {
            let t = self.load_table(ino, TABLE_IND)?;
            return Ok(t[idx as usize]);
        }
        let idx = idx - PPB as u64;
        if idx >= (PPB * PPB) as u64 {
            return Err(LfsError::TooBig);
        }
        let t = self.load_table(ino, (idx / PPB as u64) as u32)?;
        Ok(t[(idx % PPB as u64) as usize])
    }

    fn set_block_addr(&mut self, ino: u32, idx: u64, addr: u32) -> Result<()> {
        if idx < NDIRECT as u64 {
            self.inode_mut(ino)?.ptrs[idx as usize] = addr;
            return Ok(());
        }
        let rel = idx - NDIRECT as u64;
        let (table, entry) = if rel < PPB as u64 {
            (TABLE_IND, rel as usize)
        } else {
            let rel = rel - PPB as u64;
            if rel >= (PPB * PPB) as u64 {
                return Err(LfsError::TooBig);
            }
            ((rel / PPB as u64) as u32, (rel % PPB as u64) as usize)
        };
        let mut t = self.load_table(ino, table)?;
        t[entry] = addr;
        self.dirty_tables.insert((ino, table), t);
        // The i-node is considered dirty too (mtime in real Sprite).
        self.inode_mut(ino)?;
        Ok(())
    }

    // ----- public file operations -----

    /// Writes one 4 KB file block. A rewrite of a block already in the
    /// open segment is absorbed in place (Sprite's cache absorbed repeated
    /// writes between segment flushes the same way).
    pub fn write_block(&mut self, ino: u32, idx: u64, data: &[u8]) -> Result<()> {
        assert!(data.len() <= BLOCK, "block writes are at most 4 KB");
        let mut block = vec![0u8; BLOCK];
        block[..data.len()].copy_from_slice(data);
        let kind = Kind::Data {
            ino,
            idx: idx as u32,
        };
        if let Some(pos) = self.open.iter().position(|(k, _)| *k == kind) {
            self.open[pos].1 = block;
        } else {
            let addr = self.append(kind, block)?;
            self.set_block_addr(ino, idx, addr)?;
        }
        let inode = self.inode_mut(ino)?;
        inode.size = inode.size.max((idx + 1) * BLOCK as u64);
        Ok(())
    }

    /// Reads one file block.
    pub fn read_block(&mut self, ino: u32, idx: u64, buf: &mut [u8]) -> Result<()> {
        let addr = self.block_addr(ino, idx)?;
        if addr == 0 {
            buf.fill(0);
            return Ok(());
        }
        let mut block = vec![0u8; BLOCK];
        self.read_phys(addr, &mut block)?;
        let n = buf.len().min(BLOCK);
        buf[..n].copy_from_slice(&block[..n]);
        Ok(())
    }

    /// File size in bytes.
    pub fn file_size(&mut self, ino: u32) -> Result<u64> {
        Ok(self.load_inode(ino)?.size)
    }

    fn alloc_ino(&mut self) -> Result<u32> {
        self.imap
            .iter()
            .position(|&e| e == 0)
            .map(|i| i as u32)
            .ok_or(LfsError::NoInodes)
    }

    /// Creates a file in the root directory. Sprite cost: the directory
    /// data block now, plus two dirty i-nodes (ε each) at the next flush,
    /// plus two i-map blocks (δ each) at the next checkpoint.
    pub fn create(&mut self, name: &str) -> Result<u32> {
        if self.dir_lookup(name)?.is_some() {
            return Err(LfsError::Exists);
        }
        let ino = self.alloc_ino()?;
        self.imap[ino as usize] = u32::MAX; // Allocated, address pending.
        self.imap_dirty.insert(ino / IMAP_PER_BLOCK as u32);
        self.dirty_inodes.insert(ino, Inode::new(Ftype::Regular));
        self.dir_add(name, ino)?;
        Ok(ino)
    }

    /// Deletes a file from the root directory.
    pub fn delete(&mut self, name: &str) -> Result<()> {
        let (blk_idx, slot, ino) = self.dir_find(name)?.ok_or(LfsError::NotFound)?;
        // Rewrite the directory block without the entry.
        let mut block = vec![0u8; BLOCK];
        self.read_block(ROOT_INO, blk_idx, &mut block)?;
        dirent::clear(&mut block[slot * DIRENT_SIZE..(slot + 1) * DIRENT_SIZE]);
        self.write_block(ROOT_INO, blk_idx, &block)?;
        self.imap[ino as usize] = 0;
        self.imap_dirty.insert(ino / IMAP_PER_BLOCK as u32);
        self.dirty_inodes.remove(&ino);
        self.dirty_tables.retain(|(i, _), _| *i != ino);
        self.open_ops.push(OpLog::Delete { ino });
        Ok(())
    }

    /// Looks up a name in the root directory.
    pub fn lookup(&mut self, name: &str) -> Result<Option<u32>> {
        self.dir_lookup(name)
    }

    fn dir_lookup(&mut self, name: &str) -> Result<Option<u32>> {
        Ok(self.dir_find(name)?.map(|(_, _, ino)| ino))
    }

    fn dir_find(&mut self, name: &str) -> Result<Option<(u64, usize, u32)>> {
        let size = self.load_inode(ROOT_INO)?.size;
        for idx in 0..size.div_ceil(BLOCK as u64) {
            let mut block = vec![0u8; BLOCK];
            self.read_block(ROOT_INO, idx, &mut block)?;
            if let Some((slot, ino)) = Probe::Name(name).in_block(&block) {
                return Ok(Some((idx, slot, ino - 1)));
            }
        }
        Ok(None)
    }

    fn dir_add(&mut self, name: &str, ino: u32) -> Result<()> {
        let size = self.load_inode(ROOT_INO)?.size;
        let nblocks = size.div_ceil(BLOCK as u64);
        for idx in 0..nblocks {
            let mut block = vec![0u8; BLOCK];
            self.read_block(ROOT_INO, idx, &mut block)?;
            if let Some((slot, _)) = Probe::Free.in_block(&block) {
                dirent::encode(
                    ino + 1, // Dirent ino 0 means free; shift by one.
                    name,
                    &mut block[slot * DIRENT_SIZE..(slot + 1) * DIRENT_SIZE],
                );
                return self.write_block(ROOT_INO, idx, &block);
            }
        }
        let mut block = vec![0u8; BLOCK];
        dirent::encode(ino + 1, name, &mut block[0..DIRENT_SIZE]);
        self.write_block(ROOT_INO, nblocks, &block)
    }

    // ----- checkpoints and recovery -----

    /// Flushes, writes dirty i-map blocks into the log, and commits a
    /// checkpoint region — Sprite's periodic checkpoint (the paper
    /// contrasts this with LLD, which needs none).
    pub fn checkpoint(&mut self) -> Result<()> {
        self.flush()?;
        let dirty: Vec<u32> = std::mem::take(&mut self.imap_dirty).into_iter().collect();
        for blk in dirty {
            let mut block = vec![0u8; BLOCK];
            let lo = blk as usize * IMAP_PER_BLOCK;
            for i in 0..IMAP_PER_BLOCK {
                let v = self.imap.get(lo + i).copied().unwrap_or(0);
                block[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
            }
            let addr = self.append(Kind::Imap { blk }, block)?;
            self.imap_addr[blk as usize] = addr;
        }
        self.flush()?;

        let mut ckpt = Vec::with_capacity(BLOCK);
        ckpt.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
        ckpt.extend_from_slice(&self.seq.to_le_bytes());
        ckpt.extend_from_slice(&(self.imap_addr.len() as u32).to_le_bytes());
        for a in &self.imap_addr {
            ckpt.extend_from_slice(&a.to_le_bytes());
        }
        let sum = wire::fnv1a64(&ckpt);
        ckpt.extend_from_slice(&sum.to_le_bytes());
        assert!(ckpt.len() <= BLOCK);
        ckpt.resize(BLOCK, 0);
        let region = if self.ckpt_flip { 1u64 } else { 0u64 };
        self.ckpt_flip = !self.ckpt_flip;
        self.disk
            .write_sectors(region * SECTORS_PER_BLOCK, &ckpt)
            .map_err(io_err)?;
        Ok(())
    }

    /// Recovers from the newest valid checkpoint plus roll-forward through
    /// the segment summaries written after it.
    pub fn recover(mut disk: D, config: LfsConfig) -> Result<Self> {
        let nsegs = Self::segment_count(&disk, &config)?;
        // Newest valid checkpoint.
        let mut best: Option<(u64, Vec<u32>)> = None;
        for region in 0..2u64 {
            let mut block = vec![0u8; BLOCK];
            disk.read_sectors(region * SECTORS_PER_BLOCK, &mut block)
                .map_err(io_err)?;
            if wire::le_u32(&block, 0) != CKPT_MAGIC {
                continue;
            }
            let seq = wire::le_u64(&block, 4);
            let n = wire::le_u32(&block, 12) as usize;
            let end = 16 + 4 * n;
            if end + 8 > BLOCK {
                continue;
            }
            let sum = wire::le_u64(&block, end);
            if wire::fnv1a64(&block[..end]) != sum {
                continue;
            }
            let addrs: Vec<u32> = (0..n)
                .map(|i| {
                    wire::le_u32(&block, 16 + 4 * i)
                })
                .collect();
            if best.as_ref().is_none_or(|(s, _)| seq > *s) {
                best = Some((seq, addrs));
            }
        }
        let (ckpt_seq, imap_addr) = best.ok_or(LfsError::BadCheckpoint)?;

        let nimap = (config.ninodes as usize).div_ceil(IMAP_PER_BLOCK);
        let mut lfs = Self {
            disk,
            nsegs,
            seg_state: vec![SegState::Free; nsegs as usize],
            open_seg: 0,
            open: Vec::new(),
            open_ops: Vec::new(),
            imap: vec![0; config.ninodes as usize],
            imap_addr: {
                let mut v = imap_addr;
                v.resize(nimap, 0);
                v
            },
            imap_dirty: BTreeSet::new(),
            dirty_inodes: BTreeMap::new(),
            dirty_tables: BTreeMap::new(),
            seq: ckpt_seq,
            ckpt_flip: false,
            counters: WriteCounters::default(),
            config,
        };
        // Load the i-map.
        for blk in 0..lfs.imap_addr.len() {
            let addr = lfs.imap_addr[blk];
            if addr == 0 {
                continue;
            }
            let mut block = vec![0u8; BLOCK];
            lfs.read_phys(addr, &mut block)?;
            for i in 0..IMAP_PER_BLOCK {
                let e = wire::le_u32(&block, 4 * i);
                if let Some(slot) = lfs.imap.get_mut(blk * IMAP_PER_BLOCK + i) {
                    *slot = e;
                }
            }
        }

        // Roll forward: scan all summaries, apply those newer than the
        // checkpoint in sequence order.
        let mut found: Vec<(u64, u32)> = Vec::new();
        for seg in 0..nsegs {
            let base = lfs.seg_base(seg);
            let nblocks = lfs.config.segment_blocks as usize;
            let mut body = vec![0u8; nblocks * BLOCK];
            lfs.disk
                .read_sectors(u64::from(base) * SECTORS_PER_BLOCK, &mut body)
                .map_err(io_err)?;
            if let Some(seq) = summary_seq_if_valid(&body) {
                // The checkpoint stores the *next* sequence number, so
                // segments written after it carry seq >= ckpt_seq.
                if seq >= ckpt_seq {
                    found.push((seq, seg));
                }
            }
        }
        found.sort_unstable();
        for (seq, seg) in &found {
            lfs.roll_forward_segment(*seg)?;
            lfs.seq = lfs.seq.max(seq + 1);
        }

        // Rebuild live counts and states by walking everything reachable.
        lfs.rebuild_usage()?;
        // Open a fresh segment.
        let next = lfs
            .seg_state
            .iter()
            .position(|s| *s == SegState::Free)
            .ok_or(LfsError::NoSpace)? as u32;
        lfs.seg_state[next as usize] = SegState::Live;
        lfs.open_seg = next;
        Ok(lfs)
    }

    fn roll_forward_segment(&mut self, seg: u32) -> Result<()> {
        let base = self.seg_base(seg);
        let nblocks = self.config.segment_blocks as usize;
        let mut body = vec![0u8; nblocks * BLOCK];
        self.disk
            .read_sectors(u64::from(base) * SECTORS_PER_BLOCK, &mut body)
            .map_err(io_err)?;
        let count = wire::le_u32(&body, 4) as usize;
        let nops = wire::le_u32(&body, 16) as usize;
        let mut pos = 20;
        let entries: Vec<(u8, u32, u32)> = (0..count)
            .map(|_| {
                let kind = body[pos];
                let a = wire::le_u32(&body, pos + 1);
                let b = wire::le_u32(&body, pos + 5);
                pos += 9;
                (kind, a, b)
            })
            .collect();
        let ops: Vec<(u8, u32)> = (0..nops)
            .map(|_| {
                let op = body[pos];
                let ino = wire::le_u32(&body, pos + 1);
                pos += 5;
                (op, ino)
            })
            .collect();

        for (i, (kind, a, b)) in entries.iter().enumerate() {
            let addr = base + 1 + i as u32;
            match kind {
                0 => {
                    // Data block: re-attach to the i-node (allocating the
                    // i-node lazily if its create never flushed — cannot
                    // happen, creates dirty the i-node first).
                    let ino = *a;
                    if self.imap.get(ino as usize).copied().unwrap_or(0) != 0
                        || self.dirty_inodes.contains_key(&ino)
                    {
                        self.set_block_addr(ino, u64::from(*b), addr)?;
                        let inode = self.inode_mut(ino)?;
                        inode.size = inode.size.max((u64::from(*b) + 1) * BLOCK as u64);
                    }
                }
                1 => {
                    // I-node block: newest locations win.
                    let block = &body[(1 + i) * BLOCK..(2 + i) * BLOCK];
                    for slot in 0..INODES_PER_BLOCK {
                        let img = &block[slot * INODE_BYTES..(slot + 1) * INODE_BYTES];
                        if Inode::decode(img).is_some() {
                            // Which i-node is this? The i-map may already
                            // know; otherwise scan is ambiguous — encode the
                            // ino inside the image instead.
                            let ino = wire::le_u32(img, 4);
                            if (ino as usize) < self.imap.len() {
                                self.imap[ino as usize] =
                                    addr * INODES_PER_BLOCK as u32 + slot as u32 + 1;
                                self.dirty_inodes.remove(&ino);
                            }
                        }
                    }
                }
                2 => {
                    let blk = *a as usize;
                    if blk < self.imap_addr.len() {
                        self.imap_addr[blk] = addr;
                        let mut block = vec![0u8; BLOCK];
                        block.copy_from_slice(&body[(1 + i) * BLOCK..(2 + i) * BLOCK]);
                        for k in 0..IMAP_PER_BLOCK {
                            let e = wire::le_u32(&block, 4 * k);
                            if let Some(slot) = self.imap.get_mut(blk * IMAP_PER_BLOCK + k) {
                                *slot = e;
                            }
                        }
                    }
                }
                3 => {
                    // Indirect block: reload as a dirty table so the newest
                    // pointers win.
                    let ino = *a;
                    let table = *b;
                    let block = &body[(1 + i) * BLOCK..(2 + i) * BLOCK];
                    let content: Vec<u32> = (0..PPB)
                        .map(|k| {
                            wire::le_u32(block, 4 * k)
                        })
                        .collect();
                    if self.imap.get(ino as usize).copied().unwrap_or(0) != 0
                        || self.dirty_inodes.contains_key(&ino)
                    {
                        self.dirty_tables.insert((ino, table), content);
                    }
                }
                _ => {}
            }
        }
        for (op, ino) in ops {
            if op == 1 {
                if let Some(e) = self.imap.get_mut(ino as usize) {
                    *e = 0;
                }
                self.dirty_inodes.remove(&ino);
                self.dirty_tables.retain(|(i, _), _| *i != ino);
            }
        }
        Ok(())
    }

    /// Rebuilds segment states from the reachable state: a segment that
    /// holds a reachable block is Live, every other one Free.
    fn rebuild_usage(&mut self) -> Result<()> {
        let inos: Vec<u32> = (0..self.imap.len() as u32)
            .filter(|&i| self.imap[i as usize] != 0 || self.dirty_inodes.contains_key(&i))
            .collect();
        let mut live = vec![false; self.nsegs as usize];
        let segment_blocks = self.config.segment_blocks;
        let mut credit = |addr: u32| {
            if addr != 0 && addr != u32::MAX {
                live[((addr - 2) / segment_blocks) as usize] = true;
            }
        };
        for ino in inos {
            let entry = self.imap[ino as usize];
            if entry != 0 && entry != u32::MAX {
                credit((entry - 1) / INODES_PER_BLOCK as u32);
            }
            let inode = match self.load_inode(ino) {
                Ok(i) => i,
                Err(_) => continue,
            };
            let nblocks = inode.size.div_ceil(BLOCK as u64);
            for idx in 0..nblocks {
                if let Ok(a) = self.block_addr(ino, idx) {
                    credit(a);
                }
            }
            credit(inode.ptrs[NDIRECT]);
            if inode.ptrs[NDIRECT + 1] != 0 {
                credit(inode.ptrs[NDIRECT + 1]);
                for a in self.load_table(ino, TABLE_DIND_TOP)? {
                    credit(a);
                }
            }
        }
        for &a in &self.imap_addr {
            credit(a);
        }
        for (state, live) in self.seg_state.iter_mut().zip(live) {
            *state = if live { SegState::Live } else { SegState::Free };
        }
        Ok(())
    }
}

fn io_err(e: simdisk::DiskError) -> LfsError {
    LfsError::Io(e.to_string())
}

/// Validates a segment image; returns its sequence number if intact.
fn summary_seq_if_valid(body: &[u8]) -> Option<u64> {
    if body.len() < BLOCK {
        return None;
    }
    if wire::le_u32(body, 0) != SUMMARY_MAGIC {
        return None;
    }
    let count = wire::le_u32(body, 4) as usize;
    let seq = wire::le_u64(body, 8);
    let nops = wire::le_u32(body, 16) as usize;
    let summary_used = 20 + 9 * count + 5 * nops;
    if summary_used + 8 > BLOCK || (1 + count) * BLOCK > body.len() {
        return None;
    }
    let stored = wire::le_u64(body, summary_used);
    let mut hashed = body[..summary_used].to_vec();
    hashed.extend_from_slice(&body[BLOCK..(1 + count) * BLOCK]);
    (wire::fnv1a64(&hashed) == stored).then_some(seq)
}

#[cfg(test)]
mod tests;
