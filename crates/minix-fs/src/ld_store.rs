//! The Logical Disk storage backend — what turns MINIX into MINIX LLD
//! (paper §4.1).
//!
//! The §4.1 modifications map onto this store:
//!
//! 1. "MINIX calls NewBlock to allocate a new block for a file; it also
//!    tells LLD to add the block to the list" → [`BlockStore::alloc_block`]
//!    with a `prev` hint.
//! 2. "When MINIX frees a block it notifies LLD" → [`BlockStore::free_block`].
//! 3. "Upon a sync MINIX tells LLD to flush the segment" →
//!    [`BlockStore::sync`].
//! 4. "Read-ahead in MINIX is disabled" → [`BlockStore::supports_readahead`]
//!    returns false.
//! 5. "MINIX stores each file's blocks in a separate list" →
//!    [`BlockStore::new_group`] (a group is an LD list; the group id is
//!    what MINIX "stores in the i-node").
//! 6. "MINIX no longer stores the block bitmap" → there is none here; LD
//!    owns free-space management.
//!
//! Store addresses are `bid + 1` so that `0` can mean "no block" in zone
//! pointers.

use ld_core::{Bid, FailureSet, LdError, Lid, ListHints, LogicalDisk, Pred, PredList};
use simdisk::BlockDev;

use crate::store::{Addr, AllocHint, BlockStore};
use crate::{FsError, Result};

/// The LD-backed store.
#[derive(Debug)]
pub struct LdStore<D: BlockDev> {
    lld: lld::Lld<D>,
    /// The shared list holding the superblock, i-node containers, and (in
    /// single-list mode) every file block.
    meta_list: Lid,
    /// Last block allocated on the meta list — new allocations go after it
    /// ("inserts its first block immediately after the last block of some
    /// other file").
    last_meta: Option<Bid>,
}

fn store_err(e: LdError) -> FsError {
    match e {
        LdError::NoSpace => FsError::NoSpace,
        other => FsError::Store(other.to_string()),
    }
}

impl<D: BlockDev> LdStore<D> {
    /// Formats: creates the meta list and pre-allocates the superblock
    /// block as the very first block (so [`BlockStore::superblock_addr`]
    /// is a constant).
    pub fn format(disk: D, config: lld::LldConfig) -> Result<Self> {
        Self::format_with(disk, config, false)
    }

    /// Formats with transparent compression requested for every list
    /// (paper §3.3 / the compression experiment).
    pub fn format_compressed(disk: D, config: lld::LldConfig) -> Result<Self> {
        Self::format_with(disk, config, true)
    }

    fn format_with(disk: D, config: lld::LldConfig, compress: bool) -> Result<Self> {
        let mut lld = lld::Lld::format(disk, config).map_err(store_err)?;
        let hints = if compress {
            ListHints::compressed()
        } else {
            ListHints::default()
        };
        let meta_list = lld.new_list(PredList::Start, hints).map_err(store_err)?;
        let sb = lld.new_block(meta_list, Pred::Start).map_err(store_err)?;
        debug_assert_eq!(sb, Bid(0), "superblock must be the first block");
        Ok(Self {
            lld,
            meta_list,
            last_meta: Some(sb),
        })
    }

    /// Mounts an existing LD store (after recovery or checkpoint load).
    pub fn mount(disk: D, config: lld::LldConfig) -> Result<Self> {
        let mut lld = lld::Lld::open(disk, config).map_err(store_err)?;
        // The meta list is the first list ever created; after recovery it
        // is the list containing bid 0.
        let meta_list = lld
            .list_of_lists()
            .into_iter()
            .find(|l| lld.list_blocks(*l).is_ok_and(|bs| bs.contains(&Bid(0))))
            .ok_or(FsError::BadSuperblock)?;
        let last_meta = lld
            .list_blocks(meta_list)
            .map_err(store_err)?
            .last()
            .copied();
        Ok(Self {
            lld,
            meta_list,
            last_meta,
        })
    }

    /// Access to the underlying LLD (stats, maintenance).
    pub fn lld(&self) -> &lld::Lld<D> {
        &self.lld
    }

    /// Mutable access to the underlying LLD.
    pub fn lld_mut(&mut self) -> &mut lld::Lld<D> {
        &mut self.lld
    }

    /// Consumes the store, returning the device (crash simulation).
    pub fn into_disk(self) -> D {
        self.lld.into_disk()
    }

    /// The underlying device.
    pub fn disk(&self) -> &D {
        self.lld.disk()
    }

    /// Mutable access to the underlying device.
    pub fn disk_mut(&mut self) -> &mut D {
        self.lld.disk_mut()
    }

    fn lid_of(&self, group: u64) -> Lid {
        if group == 0 {
            self.meta_list
        } else {
            Lid(group - 1)
        }
    }

    fn alloc_common(&mut self, hint: &AllocHint, size: usize) -> Result<Addr> {
        let lid = self.lid_of(hint.group);
        let pred = match hint.prev {
            Some(p) => Pred::After(Bid(u64::from(p) - 1)),
            None if hint.group == 0 => match self.last_meta {
                Some(b) => Pred::After(b),
                None => Pred::Start,
            },
            None => Pred::Start,
        };
        let bid = self
            .lld
            .new_block_with_size(lid, pred, size)
            .map_err(store_err)?;
        if hint.group == 0 {
            self.last_meta = Some(bid);
        }
        Ok((bid.0 + 1) as Addr)
    }
}

impl<D: BlockDev> BlockStore for LdStore<D> {
    fn block_size(&self) -> usize {
        self.lld.default_block_size()
    }

    fn superblock_addr(&self) -> Addr {
        1 // bid 0.
    }

    fn read_block(&mut self, addr: Addr, buf: &mut [u8]) -> Result<usize> {
        self.lld
            .read(Bid(u64::from(addr) - 1), buf)
            .map_err(store_err)
    }

    fn write_block(&mut self, addr: Addr, data: &[u8]) -> Result<()> {
        self.lld
            .write(Bid(u64::from(addr) - 1), data)
            .map_err(store_err)
    }

    fn alloc_block(&mut self, hint: &AllocHint) -> Result<Addr> {
        let size = self.block_size();
        self.alloc_common(hint, size)
    }

    fn alloc_sized(&mut self, hint: &AllocHint, size: usize) -> Result<Addr> {
        self.alloc_common(hint, size)
    }

    fn free_block(&mut self, addr: Addr, hint: &AllocHint) -> Result<()> {
        let bid = Bid(u64::from(addr) - 1);
        let lid = self.lid_of(hint.group);
        let pred_hint = hint.prev.map(|p| Bid(u64::from(p) - 1));
        if self.last_meta == Some(bid) {
            self.last_meta = None;
        }
        self.lld
            .delete_block(bid, lid, pred_hint)
            .map_err(store_err)
    }

    fn new_group(&mut self, near: Option<u64>) -> Result<u64> {
        // Interlist clustering: place the new file's list near its
        // neighbour's (e.g. the previous file in the directory).
        let pred = match near.filter(|&g| g != 0) {
            Some(g) => PredList::After(Lid(g - 1)),
            None => PredList::After(self.meta_list),
        };
        // Every file list takes the meta list's hints, which LLD keeps
        // across checkpoints and recovery sweeps: a compressed store stays
        // compressed after a remount.
        let hints = self.lld.list_hints(self.meta_list).unwrap_or_default();
        let lid = match self.lld.new_list(pred, hints) {
            Ok(lid) => lid,
            // The neighbour hint may name a list deleted since (the hinted
            // file was unlinked); clustering hints must never fail an
            // allocation.
            Err(LdError::UnknownList(_)) => self
                .lld
                .new_list(PredList::After(self.meta_list), hints)
                .map_err(store_err)?,
            Err(e) => return Err(store_err(e)),
        };
        Ok(lid.0 + 1)
    }

    fn delete_group(&mut self, group: u64) -> Result<()> {
        if group == 0 {
            return Ok(());
        }
        self.lld
            .delete_list(Lid(group - 1), None)
            .map_err(store_err)
    }

    fn sync(&mut self) -> Result<()> {
        self.lld.flush(FailureSet::PowerFailure).map_err(store_err)
    }

    fn supports_readahead(&self) -> bool {
        // "Read-ahead in MINIX is disabled, since blocks that MINIX thinks
        // are contiguous may not actually be so."
        false
    }

    fn supports_small_blocks(&self) -> bool {
        true
    }

    fn free_blocks(&self) -> u64 {
        self.lld.free_bytes() / self.block_size() as u64
    }

    fn now_us(&self) -> u64 {
        self.lld.disk().now_us()
    }

    fn advance_us(&mut self, us: u64) {
        self.lld.disk_mut().advance_us(us);
    }

    fn tracer(&self) -> Option<&ld_trace::Tracer> {
        self.lld.disk().tracer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdisk::MemDisk;

    fn store() -> LdStore<MemDisk> {
        LdStore::format(
            MemDisk::with_capacity(8 << 20),
            lld::LldConfig::small_for_tests(),
        )
        .unwrap()
    }

    #[test]
    fn superblock_is_block_zero() {
        let mut s = store();
        assert_eq!(s.superblock_addr(), 1);
        s.write_block(1, b"SUPER").unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(s.read_block(1, &mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"SUPER");
    }

    #[test]
    fn groups_map_to_lists() {
        let mut s = store();
        let g = s.new_group(None).unwrap();
        assert_ne!(g, 0);
        let a = s.alloc_block(&AllocHint::in_group(g, None)).unwrap();
        let b = s.alloc_block(&AllocHint::in_group(g, Some(a))).unwrap();
        s.write_block(a, &[1u8; 100]).unwrap();
        s.write_block(b, &[2u8; 100]).unwrap();
        // Deleting the group frees both blocks.
        s.delete_group(g).unwrap();
        assert!(s.read_block(a, &mut [0u8; 4096]).is_err());
        assert!(s.read_block(b, &mut [0u8; 4096]).is_err());
    }

    #[test]
    fn meta_allocations_chain_after_last() {
        let mut s = store();
        let a = s.alloc_block(&AllocHint::after(None)).unwrap();
        let b = s.alloc_block(&AllocHint::after(None)).unwrap();
        // Both went on the meta list, in order after the superblock.
        let blocks = s.lld_mut().list_blocks(Lid(0)).unwrap();
        assert_eq!(
            blocks,
            vec![Bid(0), Bid(u64::from(a) - 1), Bid(u64::from(b) - 1)]
        );
    }

    #[test]
    fn small_blocks_supported() {
        let mut s = store();
        assert!(s.supports_small_blocks());
        let i = s.alloc_sized(&AllocHint::after(None), 64).unwrap();
        s.write_block(i, &[9u8; 64]).unwrap();
        let mut buf = vec![0u8; 64];
        assert_eq!(s.read_block(i, &mut buf).unwrap(), 64);
        assert!(s.write_block(i, &[0u8; 65]).is_err());
    }

    #[test]
    fn mount_finds_meta_list_after_recovery() {
        let mut s = store();
        let a = s.alloc_block(&AllocHint::after(None)).unwrap();
        s.write_block(a, &[7u8; 4096]).unwrap();
        s.sync().unwrap();
        let disk = s.into_disk();
        let mut s2 = LdStore::mount(disk, lld::LldConfig::small_for_tests()).unwrap();
        let mut buf = vec![0u8; 4096];
        assert_eq!(s2.read_block(a, &mut buf).unwrap(), 4096);
        assert_eq!(buf, vec![7u8; 4096]);
        // New allocations still work after the remount.
        let b = s2.alloc_block(&AllocHint::after(Some(a))).unwrap();
        assert_ne!(b, 0);
    }
}
