//! FFS i-node encoding: 64 bytes, 7 direct blocks, one indirect, one
//! double-indirect — structurally like MINIX's but with a 64-bit size, over
//! 8 KB blocks. Block pointers are disk block numbers with 0 as "none"
//! (block 0 is the superblock, never file data).

use fsutil::fs::{FileType, Inode, NPTRS};
use fsutil::wire;

/// Encodes into a 64-byte slot (zeroed slot = free).
pub fn encode(inode: &Inode, slot: &mut [u8]) {
    slot.fill(0);
    slot[0..2].copy_from_slice(&inode.ftype.code().to_le_bytes());
    slot[4..12].copy_from_slice(&inode.size.to_le_bytes());
    slot[12..16].copy_from_slice(&inode.mtime.to_le_bytes());
    slot[16..20].copy_from_slice(&inode.group.to_le_bytes());
    for (i, p) in inode.ptrs.iter().enumerate() {
        slot[20 + i * 4..24 + i * 4].copy_from_slice(&p.to_le_bytes());
    }
}

/// Decodes a slot; `None` when the slot is free.
pub fn decode(slot: &[u8]) -> Option<Inode> {
    let ftype = FileType::from_code(wire::le_u16(slot, 0))?;
    let mut ptrs = [0u32; NPTRS];
    for (i, p) in ptrs.iter_mut().enumerate() {
        *p = wire::le_u32(slot, 20 + i * 4);
    }
    Some(Inode {
        ftype,
        size: wire::le_u64(slot, 4),
        mtime: wire::le_u32(slot, 12),
        group: wire::le_u32(slot, 16),
        ptrs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsutil::fs::{ptr_path, PtrPath, IND, INODE_SIZE};

    #[test]
    fn roundtrip() {
        let mut i = Inode::new(FileType::Regular, 3, 42);
        i.size = 80 << 20;
        i.ptrs[0] = 1000;
        i.ptrs[IND] = 2000;
        let mut slot = [0u8; INODE_SIZE];
        encode(&i, &mut slot);
        assert_eq!(decode(&slot), Some(i));
        assert_eq!(decode(&[0u8; INODE_SIZE]), None);
    }

    #[test]
    fn eighty_megabyte_file_fits_in_indirect_range() {
        // 80 MB at 8 KB blocks = 10240 blocks; ppb = 2048.
        assert_eq!(ptr_path(10_239, 2048), Some(PtrPath::Double(3, 2040)));
        assert!(matches!(ptr_path(7, 2048), Some(PtrPath::Indirect(0))));
        assert!(ptr_path(7 + 2048 + 2048 * 2048, 2048).is_none());
    }
}
