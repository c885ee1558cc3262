//! Update-in-place storage with a free-block bitmap — the disk management
//! of *plain* MINIX (paper §4.1: "It uses two bitmaps to keep track of free
//! disk space ... When it allocates a block for a file, it allocates it
//! close to the previous allocated block for that file").
//!
//! Layout: block 0 is the file system's superblock; the next blocks hold
//! the store's free-block bitmap; everything after is allocatable. Blocks
//! are written in place, so a 4 KB write that misses its rotational window
//! costs most of a revolution — exactly the effect that limits plain MINIX
//! to ~13 % of the disk bandwidth in Table 5.

use fsutil::Bitmap;
use simdisk::{BlockDev, SECTOR_SIZE};

use crate::store::{Addr, AllocHint, BlockStore};
use crate::{FsError, Result};

const BLOCK_SIZE: usize = 4096;
const SECTORS_PER_BLOCK: u64 = (BLOCK_SIZE / SECTOR_SIZE) as u64;

/// The update-in-place store.
#[derive(Debug)]
pub struct RawStore<D: BlockDev> {
    disk: D,
    /// Total blocks on the device.
    blocks: u32,
    /// Free-block bitmap (bit set = allocated). Kept in memory, persisted
    /// to its reserved blocks on `sync`.
    bitmap: Bitmap,
    bitmap_dirty: bool,
    /// First block after the reserved region (superblock + bitmap).
    first_data: u32,
    /// Most recent allocation, the default locality hint.
    last_alloc: u32,
}

impl<D: BlockDev> RawStore<D> {
    fn geometry(disk: &D) -> (u32, u32) {
        let blocks = (disk.total_sectors() / SECTORS_PER_BLOCK) as u32;
        let bitmap_blocks = (blocks as usize).div_ceil(8).div_ceil(BLOCK_SIZE) as u32;
        (blocks, 1 + bitmap_blocks)
    }

    /// Formats the device: reserves the superblock and bitmap region.
    pub fn format(disk: D) -> Result<Self> {
        let (blocks, first_data) = Self::geometry(&disk);
        if first_data >= blocks {
            return Err(FsError::NoSpace);
        }
        let mut bitmap = Bitmap::new(blocks as usize);
        for b in 0..first_data {
            bitmap.set(b as usize);
        }
        let mut store = Self {
            disk,
            blocks,
            bitmap,
            bitmap_dirty: true,
            first_data,
            last_alloc: first_data,
        };
        store.sync()?;
        Ok(store)
    }

    /// Mounts an existing device, reloading the bitmap.
    pub fn mount(mut disk: D) -> Result<Self> {
        let (blocks, first_data) = Self::geometry(&disk);
        let bitmap_blocks = first_data - 1;
        let mut bytes = vec![0u8; (bitmap_blocks as usize) * BLOCK_SIZE];
        disk.read_sectors(SECTORS_PER_BLOCK, &mut bytes)
            .map_err(|e| FsError::Store(e.to_string()))?;
        let bitmap = Bitmap::from_bytes(&bytes, blocks as usize);
        if !(0..first_data).all(|b| bitmap.get(b as usize)) {
            return Err(FsError::BadSuperblock);
        }
        Ok(Self {
            disk,
            blocks,
            bitmap,
            bitmap_dirty: false,
            first_data,
            last_alloc: first_data,
        })
    }

    /// Access to the underlying device.
    pub fn disk(&self) -> &D {
        &self.disk
    }

    /// Mutable access to the underlying device.
    pub fn disk_mut(&mut self) -> &mut D {
        &mut self.disk
    }

    /// Consumes the store, returning the device.
    pub fn into_disk(self) -> D {
        self.disk
    }

    fn check(&self, addr: Addr) -> Result<()> {
        if addr >= self.blocks {
            return Err(FsError::Store(format!("block {addr} out of range")));
        }
        Ok(())
    }
}

impl<D: BlockDev> BlockStore for RawStore<D> {
    fn block_size(&self) -> usize {
        BLOCK_SIZE
    }

    fn superblock_addr(&self) -> Addr {
        0
    }

    fn read_block(&mut self, addr: Addr, buf: &mut [u8]) -> Result<usize> {
        self.check(addr)?;
        let buf = &mut buf[..BLOCK_SIZE];
        self.disk
            .read_sectors(u64::from(addr) * SECTORS_PER_BLOCK, buf)
            .map_err(|e| FsError::Store(e.to_string()))?;
        Ok(BLOCK_SIZE)
    }

    fn write_block(&mut self, addr: Addr, data: &[u8]) -> Result<()> {
        self.check(addr)?;
        // Update in place; short data is padded to the full block.
        if data.len() == BLOCK_SIZE {
            self.disk
                .write_sectors(u64::from(addr) * SECTORS_PER_BLOCK, data)
                .map_err(|e| FsError::Store(e.to_string()))
        } else {
            let mut block = vec![0u8; BLOCK_SIZE];
            block[..data.len()].copy_from_slice(data);
            self.disk
                .write_sectors(u64::from(addr) * SECTORS_PER_BLOCK, &block)
                .map_err(|e| FsError::Store(e.to_string()))
        }
    }

    fn read_blocks(&mut self, addrs: &[Addr]) -> Result<Vec<Vec<u8>>> {
        // MINIX's read-ahead issues one request for a run of physically
        // contiguous blocks; coalesce adjacent addresses.
        let mut out = Vec::with_capacity(addrs.len());
        let mut i = 0;
        while i < addrs.len() {
            self.check(addrs[i])?;
            let mut n = 1;
            while i + n < addrs.len() && addrs[i + n] == addrs[i] + n as u32 {
                n += 1;
            }
            let mut buf = vec![0u8; n * BLOCK_SIZE];
            self.disk
                .read_sectors(u64::from(addrs[i]) * SECTORS_PER_BLOCK, &mut buf)
                .map_err(|e| FsError::Store(e.to_string()))?;
            for chunk in buf.chunks(BLOCK_SIZE) {
                out.push(chunk.to_vec());
            }
            i += n;
        }
        Ok(out)
    }

    fn alloc_block(&mut self, hint: &AllocHint) -> Result<Addr> {
        // "Close to the previous allocated block for that file", falling
        // back to close to the last allocation anywhere.
        let near = hint
            .prev
            .map(|p| p.saturating_add(1))
            .unwrap_or(self.last_alloc) as usize;
        let slot = self.bitmap.alloc_near(near).ok_or(FsError::NoSpace)?;
        self.bitmap_dirty = true;
        self.last_alloc = slot as u32;
        Ok(slot as u32)
    }

    fn alloc_sized(&mut self, hint: &AllocHint, size: usize) -> Result<Addr> {
        if size > BLOCK_SIZE {
            return Err(FsError::Store(format!("block size {size} unsupported")));
        }
        // The raw store has a single size class; small requests get a
        // whole block.
        self.alloc_block(hint)
    }

    fn free_block(&mut self, addr: Addr, _hint: &AllocHint) -> Result<()> {
        self.check(addr)?;
        if addr < self.first_data {
            return Err(FsError::Store(format!("block {addr} is reserved")));
        }
        self.bitmap.clear(addr as usize);
        self.bitmap_dirty = true;
        Ok(())
    }

    fn new_group(&mut self, _near: Option<u64>) -> Result<u64> {
        Ok(0)
    }

    fn delete_group(&mut self, group: u64) -> Result<()> {
        debug_assert_eq!(group, 0, "raw store has no groups");
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        if self.bitmap_dirty {
            let mut bytes = self.bitmap.as_bytes().to_vec();
            bytes.resize(((self.first_data - 1) as usize) * BLOCK_SIZE, 0);
            self.disk
                .write_sectors(SECTORS_PER_BLOCK, &bytes)
                .map_err(|e| FsError::Store(e.to_string()))?;
            self.bitmap_dirty = false;
        }
        Ok(())
    }

    fn supports_readahead(&self) -> bool {
        true
    }

    fn supports_small_blocks(&self) -> bool {
        false
    }

    fn free_blocks(&self) -> u64 {
        self.bitmap.free() as u64
    }

    fn now_us(&self) -> u64 {
        self.disk.now_us()
    }

    fn advance_us(&mut self, us: u64) {
        self.disk.advance_us(us);
    }

    fn tracer(&self) -> Option<&ld_trace::Tracer> {
        self.disk.tracer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdisk::MemDisk;

    #[test]
    fn format_reserves_metadata_region() {
        let store = RawStore::format(MemDisk::with_capacity(4 << 20)).unwrap();
        assert_eq!(store.superblock_addr(), 0);
        assert!(store.first_data >= 2);
        assert_eq!(
            store.free_blocks(),
            u64::from(store.blocks - store.first_data)
        );
    }

    #[test]
    fn alloc_near_previous_block() {
        let mut store = RawStore::format(MemDisk::with_capacity(4 << 20)).unwrap();
        let a = store.alloc_block(&AllocHint::after(None)).unwrap();
        let b = store.alloc_block(&AllocHint::after(Some(a))).unwrap();
        assert_eq!(b, a + 1, "allocation follows the previous block");
    }

    #[test]
    fn write_read_roundtrip_and_free() {
        let mut store = RawStore::format(MemDisk::with_capacity(4 << 20)).unwrap();
        let a = store.alloc_block(&AllocHint::default()).unwrap();
        let data: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        store.write_block(a, &data).unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(store.read_block(a, &mut buf).unwrap(), 4096);
        assert_eq!(buf, data);
        store.free_block(a, &AllocHint::default()).unwrap();
        // The slot is reusable.
        let b = store.alloc_block(&AllocHint::after(Some(a - 1))).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn bitmap_survives_mount() {
        let mut store = RawStore::format(MemDisk::with_capacity(4 << 20)).unwrap();
        let a = store.alloc_block(&AllocHint::default()).unwrap();
        store.sync().unwrap();
        let disk = store.into_disk();
        let store2 = RawStore::mount(disk).unwrap();
        assert!(store2.bitmap.get(a as usize), "allocation persisted");
    }

    #[test]
    fn small_blocks_unsupported() {
        let mut store = RawStore::format(MemDisk::with_capacity(4 << 20)).unwrap();
        assert!(!store.supports_small_blocks());
        // Small requests still succeed but consume a full block.
        let before = store.free_blocks();
        store.alloc_sized(&AllocHint::default(), 64).unwrap();
        assert_eq!(store.free_blocks(), before - 1);
        assert!(store.alloc_sized(&AllocHint::default(), 8192).is_err());
    }

    #[test]
    fn freeing_reserved_blocks_is_rejected() {
        let mut store = RawStore::format(MemDisk::with_capacity(4 << 20)).unwrap();
        assert!(store.free_block(0, &AllocHint::default()).is_err());
    }
}
